package sink

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/workload"
)

func sample(t float64) device.Sample {
	return device.Sample{TimeSec: t, SkinC: 30 + t, ScreenC: 29, DieC: 50, BatteryC: 31, FreqMHz: 1026, Util: 0.5, MaxLevel: 11}
}

func TestCSVHeaderAndRows(t *testing.T) {
	var b strings.Builder
	c := NewCSV(&b)
	c.Accept(3, sample(1))
	c.Accept(4, sample(2))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d want header + 2 rows", len(lines))
	}
	if lines[0] != csvHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "3,1.000,31.0000") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestJSONLShape(t *testing.T) {
	var b strings.Builder
	j := NewJSONL(&b)
	j.Accept(7, sample(2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(b.String())
	for _, want := range []string{`"job":7`, `"t":2`, `"skin_c":32`, `"max_level":11`} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
		t.Fatalf("not a JSON object: %q", line)
	}
}

// oracleJSONL is the JSONL line encoding with strconv floats, the
// reference AppendJSONL must match byte for byte.
func oracleJSONL(b []byte, job JobID, s device.Sample) []byte {
	field := func(b []byte, key string, v float64) []byte {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, `{"job":`...)
	b = strconv.AppendInt(b, int64(job), 10)
	b = field(b, "t", s.TimeSec)
	b = field(b, "skin_c", s.SkinC)
	b = field(b, "screen_c", s.ScreenC)
	b = field(b, "die_c", s.DieC)
	b = field(b, "battery_c", s.BatteryC)
	b = field(b, "freq_mhz", s.FreqMHz)
	b = field(b, "util", s.Util)
	b = append(b, `,"max_level":`...)
	b = strconv.AppendInt(b, int64(s.MaxLevel), 10)
	b = append(b, '}', '\n')
	return b
}

// tracedRun returns the telemetry of one short real run: ten simulated
// minutes of the AnTuTu CPU workload on the default phone under ondemand,
// full-precision times, temperatures and utilizations included.
func tracedRun(tb testing.TB) []device.Sample {
	tb.Helper()
	p, err := device.New(device.DefaultConfig(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	var ss []device.Sample
	p.SetObserver(func(s device.Sample) { ss = append(ss, s) })
	if _, err := p.RunEventContext(context.Background(), workload.ByName("antutu-cpu", 1), 600); err != nil {
		tb.Fatal(err)
	}
	if len(ss) == 0 {
		tb.Fatal("run emitted no telemetry")
	}
	return ss
}

// TestAppendJSONLMatchesOracle checks every line of a real run against
// the strconv oracle, and that each decodes with encoding/json back to
// the sample's exact bits.
func TestAppendJSONLMatchesOracle(t *testing.T) {
	for i, s := range tracedRun(t) {
		job := JobID(i % 7)
		line := AppendJSONL(nil, job, s)
		if want := oracleJSONL(nil, job, s); !bytes.Equal(line, want) {
			t.Fatalf("sample %d:\n got %s\nwant %s", i, line, want)
		}
		var got struct {
			Job      JobID   `json:"job"`
			T        float64 `json:"t"`
			Skin     float64 `json:"skin_c"`
			Screen   float64 `json:"screen_c"`
			Die      float64 `json:"die_c"`
			Battery  float64 `json:"battery_c"`
			Freq     float64 `json:"freq_mhz"`
			Util     float64 `json:"util"`
			MaxLevel int     `json:"max_level"`
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("sample %d: %v in %s", i, err, line)
		}
		back := device.Sample{TimeSec: got.T, SkinC: got.Skin, ScreenC: got.Screen, DieC: got.Die,
			BatteryC: got.Battery, FreqMHz: got.Freq, Util: got.Util, MaxLevel: got.MaxLevel}
		// The packed layout holds every field's bits.
		if got.Job != job || !bytes.Equal(PackSample(nil, back), PackSample(nil, s)) {
			t.Fatalf("sample %d: %s decodes to job %d %+v, want job %d %+v", i, line, got.Job, back, job, s)
		}
	}
}

// BenchmarkAppendJSONL times one line's encoding over a real run's
// samples: the sink-encode layer of the telemetry path.
func BenchmarkAppendJSONL(b *testing.B) {
	ss := tracedRun(b)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		buf = AppendJSONL(buf[:0], JobID(j), ss[j])
		if j++; j == len(ss) {
			j = 0
		}
	}
	sinkBytes = buf
}

func TestRingKeepsTail(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Accept(JobID(i), sample(float64(i)))
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d want 5", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d entries want 3", len(snap))
	}
	for i, e := range snap {
		if int(e.Job) != i+2 {
			t.Fatalf("snapshot[%d].Job = %d want %d (oldest first)", i, e.Job, i+2)
		}
	}
}

func TestDownsamplerPerJobPeriod(t *testing.T) {
	r := NewRing(100)
	d := NewDownsampler(10, r)
	for _, ts := range []float64{0, 1, 9.5, 10, 15, 20} {
		d.Accept(1, sample(ts))
	}
	d.Accept(2, sample(3)) // independent job: first sample passes
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var job1 []float64
	job2 := 0
	for _, e := range r.Snapshot() {
		switch e.Job {
		case 1:
			job1 = append(job1, e.Sample.TimeSec)
		case 2:
			job2++
		}
	}
	want := []float64{0, 10, 20}
	if len(job1) != len(want) {
		t.Fatalf("job 1 passed %v want %v", job1, want)
	}
	for i := range want {
		if job1[i] != want[i] {
			t.Fatalf("job 1 passed %v want %v", job1, want)
		}
	}
	if job2 != 1 {
		t.Fatalf("job 2 passed %d samples want 1", job2)
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := NewRing(10), NewRing(10)
	tee := NewTee(a, b)
	tee.Accept(0, sample(1))
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("fan-out totals = %d/%d want 1/1", a.Total(), b.Total())
	}
}

func TestFromFuncSerializes(t *testing.T) {
	n := 0
	s := FromFunc(func(device.Sample) { n++ }) // unsynchronized on purpose
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Accept(0, sample(float64(i)))
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 800 {
		t.Fatalf("observer saw %d calls want 800 (FromFunc must serialize)", n)
	}
}

// errWriter fails after the first write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, &writeErr{}
	}
	return len(p), nil
}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestCSVLatchesWriteError(t *testing.T) {
	c := NewCSV(&errWriter{})
	// Overflow the 4 KiB bufio buffer so the underlying writer is hit.
	for i := 0; i < 200; i++ {
		c.Accept(0, sample(float64(i)))
	}
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want the latched write error", err)
	}
}
