package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MetricWriter renders Prometheus text exposition format (version
// 0.0.4) without external dependencies. Families must be written as a
// unit — call Family once, then Sample for each labeled value — because
// the format requires a family's samples to follow its HELP/TYPE header
// contiguously.
type MetricWriter struct {
	b    bytes.Buffer
	seen map[string]bool
}

// Label is one name="value" metric label.
type Label struct {
	Name, Value string
}

// Family starts a metric family: HELP and TYPE headers, written once
// per name even if declared again.
func (w *MetricWriter) Family(name, help, typ string) {
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper applies the only escapes the text format defines for label
// values: backslash, double-quote and line feed. Every other character,
// tabs and non-ASCII included, is written as its UTF-8 bytes (Go's %q
// escapes would make the exposition unparseable).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Sample appends one sample of the most recently declared family. Label
// values that are not valid UTF-8 have each bad byte run replaced by
// U+FFFD, since the format requires UTF-8.
func (w *MetricWriter) Sample(name string, labels []Label, v float64) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(l.Name)
			w.b.WriteString(`="`)
			labelEscaper.WriteString(&w.b, strings.ToValidUTF8(l.Value, "\uFFFD"))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.b.WriteByte('\n')
}

// WriteTo flushes the rendered exposition to w.
func (w *MetricWriter) WriteTo(dst io.Writer) (int64, error) {
	n, err := dst.Write(w.b.Bytes())
	return int64(n), err
}
