package ml

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestARFFRoundTrip(t *testing.T) {
	d := NewDataset("cpu_temp_c", "cpu_util")
	d.Add([]float64{55.5, 0.8}, 38.2)
	d.Add([]float64{42.1, 0.3}, 33.0)

	var sb strings.Builder
	if err := WriteARFF(&sb, "usta corpus", d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if got.Len() != 2 || got.NumAttrs() != 2 {
		t.Fatalf("round trip shape: %d x %d", got.Len(), got.NumAttrs())
	}
	for i := range d.Y {
		if got.Y[i] != d.Y[i] {
			t.Fatalf("target[%d] = %v want %v", i, got.Y[i], d.Y[i])
		}
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("X[%d][%d] = %v want %v", i, j, got.X[i][j], d.X[i][j])
			}
		}
	}
	if got.AttrNames[0] != "cpu_temp_c" {
		t.Fatalf("attr name = %q", got.AttrNames[0])
	}
}

func TestARFFQuotesSpacedNames(t *testing.T) {
	d := NewDataset("has space")
	d.Add([]float64{1}, 2)
	var sb strings.Builder
	if err := WriteARFF(&sb, "rel name", d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "'has space'") {
		t.Fatalf("spaced attribute not quoted:\n%s", sb.String())
	}
}

func TestARFFReadSkipsCommentsAndBlanks(t *testing.T) {
	in := `% a comment
@RELATION test

@ATTRIBUTE x NUMERIC
@ATTRIBUTE target NUMERIC

@DATA
% data comment
1.5, 3.0

2.5, 5.0
`
	d, err := ReadARFF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d want 2", d.Len())
	}
	if d.Y[1] != 5 {
		t.Fatalf("Y[1] = %v", d.Y[1])
	}
}

func TestARFFReadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no data section", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n"},
		{"nominal attribute", "@RELATION r\n@ATTRIBUTE x {a,b}\n@ATTRIBUTE target NUMERIC\n@DATA\na,1\n"},
		{"data before @data", "@RELATION r\n1,2\n"},
		{"arity mismatch", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n1,2,3\n"},
		{"bad number", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\nfoo,2\n"},
		{"bad target", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n1,bar\n"},
		{"attribute after data", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@ATTRIBUTE target NUMERIC\n@DATA\n@ATTRIBUTE y NUMERIC\n"},
		{"too few attributes", "@RELATION r\n@ATTRIBUTE x NUMERIC\n@DATA\n1\n"},
		{"malformed attribute", "@RELATION r\n@ATTRIBUTE x\n"},
	}
	for _, tc := range cases {
		if _, err := ReadARFF(strings.NewReader(tc.in)); err == nil {
			t.Fatalf("%s: error expected", tc.name)
		}
	}
}

func TestARFFTrainableAfterImport(t *testing.T) {
	// End to end: a corpus exported and re-imported trains identically.
	d := NewDataset("x")
	for i := 0; i < 50; i++ {
		v := float64(i)
		d.Add([]float64{v}, 2*v+1)
	}
	var sb strings.Builder
	if err := WriteARFF(&sb, "lin", d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadARFF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	m := &meanModel{}
	if err := m.Fit(back); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, y := range d.Y {
		want += y
	}
	want /= float64(d.Len())
	if got := m.Predict(nil); got != want {
		t.Fatalf("mean after round trip = %v want %v", got, want)
	}
}

// ReadARFF parses a numeric-only ARFF stream. The final attribute becomes
// the dataset target. Nominal attributes, sparse data and quoted strings
// with embedded commas are not supported and return an error.
func ReadARFF(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	var attrs []string
	inData := false
	var d *Dataset
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		lower := strings.ToLower(text)
		switch {
		case strings.HasPrefix(lower, "@relation"):
			// Name is informational only.
		case strings.HasPrefix(lower, "@attribute"):
			if inData {
				return nil, fmt.Errorf("ml: arff line %d: @attribute after @data", line)
			}
			fields := strings.Fields(text)
			if len(fields) < 3 {
				return nil, fmt.Errorf("ml: arff line %d: malformed @attribute", line)
			}
			typ := strings.ToLower(fields[len(fields)-1])
			if typ != "numeric" && typ != "real" && typ != "integer" {
				return nil, fmt.Errorf("ml: arff line %d: unsupported attribute type %q", line, fields[len(fields)-1])
			}
			attrs = append(attrs, strings.Trim(fields[1], "'"))
		case strings.HasPrefix(lower, "@data"):
			if len(attrs) < 2 {
				return nil, fmt.Errorf("ml: arff needs at least one feature and a target")
			}
			d = NewDataset(attrs[:len(attrs)-1]...)
			inData = true
		default:
			if !inData {
				return nil, fmt.Errorf("ml: arff line %d: data before @data", line)
			}
			parts := strings.Split(text, ",")
			if len(parts) != len(attrs) {
				return nil, fmt.Errorf("ml: arff line %d: %d values for %d attributes", line, len(parts), len(attrs))
			}
			row := make([]float64, len(parts)-1)
			for i, p := range parts[:len(parts)-1] {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil {
					return nil, fmt.Errorf("ml: arff line %d: %w", line, err)
				}
				row[i] = v
			}
			y, err := strconv.ParseFloat(strings.TrimSpace(parts[len(parts)-1]), 64)
			if err != nil {
				return nil, fmt.Errorf("ml: arff line %d: %w", line, err)
			}
			d.Add(row, y)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("ml: arff stream has no @data section")
	}
	return d, nil
}
