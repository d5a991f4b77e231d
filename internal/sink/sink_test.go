package sink

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/workload"
)

func sample(t float64) device.Sample {
	return device.Sample{TimeSec: t, SkinC: 30 + t, ScreenC: 29, DieC: 50, BatteryC: 31, FreqMHz: 1026, Util: 0.5, MaxLevel: 11}
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

func TestTeeFansOut(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	tee := NewTee(a, b)
	tee.Accept(0, sample(1))
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	if len(a.jobs) != 1 || len(b.jobs) != 1 {
		t.Fatalf("fan-out totals = %d/%d want 1/1", len(a.jobs), len(b.jobs))
	}
}
