package wire

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sensors"
	"repro/internal/trace"
	"repro/internal/users"
)

// writeRaw frames an arbitrary payload with a length prefix.
func writeRaw(payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// TestFrameRoundTrip: every frame type survives WriteFrame → ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{V: Version, Type: TypeShard, Shard: &ShardRequest{
			Workers: 3, WantSamples: true,
			Jobs: []ShardJob{{JobSpec: fleet.JobSpec{
				Index:    7,
				Name:     "skype/usta",
				User:     users.User{ID: "c", SkinLimitC: 35.2, ScreenLimitC: 32.5},
				Workload: fleet.WorkloadRef{Name: "skype", Seed: 342},
				Seed:     301, DurSec: 60, TraceFree: true,
				Controller: "usta", LimitC: 37,
			}}},
		}},
		{V: Version, Type: TypeSample, Sample: &SampleFrame{
			Job: 12, Samples: PackSample(nil, device.Sample{TimeSec: 1.5, SkinC: 31.25, FreqMHz: 1512, MaxLevel: 11}),
		}},
		{V: Version, Type: TypeResult, Result: &ResultFrame{Index: 4, Name: "glbench", SeedUsed: 99}},
		{V: Version, Type: TypeResult, Result: tracedResult()},
		{V: Version, Type: TypeDone},
		{V: Version, Type: TypeError, Err: "boom"},
		{V: Version, Type: TypeHello, Hello: &HelloFrame{Proto: Version, Capacity: 2, Predictors: []string{strings.Repeat("0f", 32)}}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{PredictorID: strings.Repeat("ab", 32)}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{Workers: 2, WantSamples: true,
			PredictorID: fleet.PredictorID(leafDoc), Predictor: leafDoc, Jobs: []ShardJob{{JobSpec: fleet.JobSpec{Index: 2, Seed: 5}}}}},
		{V: Version, Type: TypeShard, Shard: devicesRequest()},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %s: %v", f.Type, err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if g, w := encoded(t, got), encoded(t, want); !bytes.Equal(g, w) {
			t.Fatalf("round trip changed the frame:\n got %q\nwant %q", g, w)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func encoded(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackSampleRoundTrip: packed samples unpack bit-exact and in order,
// including negative zero, NaN payloads, infinities and a negative clamp.
func TestPackSampleRoundTrip(t *testing.T) {
	want := []device.Sample{
		{TimeSec: 1, SkinC: 31.25, ScreenC: 30.5, DieC: 55.125, BatteryC: 29, FreqMHz: 1512, Util: 0.75, MaxLevel: 11},
		{TimeSec: math.Copysign(0, -1), SkinC: math.Float64frombits(0x7ff8000000000abc), ScreenC: math.Inf(1), DieC: math.Inf(-1), MaxLevel: -3},
		{TimeSec: math.MaxFloat64, Util: math.SmallestNonzeroFloat64, MaxLevel: math.MaxInt32},
	}
	var block []byte
	for _, s := range want {
		block = PackSample(block, s)
	}
	if len(block) != len(want)*SampleSize {
		t.Fatalf("block is %d bytes, want %d", len(block), len(want)*SampleSize)
	}
	// The documented layout: fields in declaration order, little-endian.
	if math.Float64frombits(binary.LittleEndian.Uint64(block[16:])) != 30.5 || binary.LittleEndian.Uint64(block[56:]) != 11 {
		t.Fatalf("sample 0 packed as % x", block[:SampleSize])
	}
	var got []device.Sample
	EachSample(block, func(s device.Sample) { got = append(got, s) })
	if len(got) != len(want) {
		t.Fatalf("unpacked %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(PackSample(nil, got[i]), PackSample(nil, want[i])) || got[i].MaxLevel != want[i].MaxLevel {
			t.Fatalf("sample %d: %+v, want bit-exact %+v", i, got[i], want[i])
		}
	}
}

// TestFrameShardPayloadRoundTrip pins that job specs cross the boundary
// intact, floats bit-exact.
func TestFrameShardPayloadRoundTrip(t *testing.T) {
	cfg := device.DefaultConfig()
	cfg.Thermal.Ambient = 33.3000000000001
	spec := fleet.JobSpec{
		Index:    3,
		Workload: fleet.WorkloadRef{Name: "angrybirds", Seed: 9},
		Device:   &cfg,
		Seed:     -77,
		DurSec:   123.456789012345,
	}
	req := &ShardRequest{}
	req.SetJobs([]fleet.JobSpec{spec})
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{V: Version, Type: TypeShard, Shard: req}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Shard.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Device.Thermal.Ambient != cfg.Thermal.Ambient {
		t.Fatalf("ambient %v, want bit-exact %v", got.Device.Thermal.Ambient, cfg.Thermal.Ambient)
	}
	if got.Seed != spec.Seed || got.DurSec != spec.DurSec || got.Workload != spec.Workload {
		t.Fatalf("spec diverged: %+v vs %+v", got, spec)
	}
}

// devicesRequest is a shard request over a two-entry device table: two
// jobs at a 25 °C ambient, one at 35 °C, one on the default device.
func devicesRequest() *ShardRequest {
	cool, warm := device.DefaultConfig(), device.DefaultConfig()
	cool.Thermal.Ambient, warm.Thermal.Ambient = 25, 35
	coolCopy := cool
	spec := func(i int, d *device.Config) fleet.JobSpec {
		return fleet.JobSpec{Index: i, Workload: fleet.WorkloadRef{Name: "skype"}, Device: d, Seed: int64(i + 1), DurSec: 10}
	}
	req := &ShardRequest{Workers: 1}
	req.SetJobs([]fleet.JobSpec{spec(0, &cool), spec(1, &warm), spec(2, &coolCopy), spec(3, nil)})
	return req
}

// TestShardDeviceTable: SetJobs ships each distinct configuration once —
// equal values behind different pointers included — and Spec hands jobs
// naming one entry the same pointer, the default device as nil, and an
// index outside the table as ErrDeviceIndex.
func TestShardDeviceTable(t *testing.T) {
	req := devicesRequest()
	if len(req.Devices) != 2 || req.Devices[0].Thermal.Ambient != 25 || req.Devices[1].Thermal.Ambient != 35 {
		t.Fatalf("device table = %d entries, want the 25 and 35 °C configs", len(req.Devices))
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{V: Version, Type: TypeShard, Shard: req}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []*device.Config
	for i := range f.Shard.Jobs {
		spec, err := f.Shard.Spec(i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, spec.Device)
	}
	if got[0] != got[2] || got[0] == got[1] || got[0] != &f.Shard.Devices[0] || got[3] != nil {
		t.Fatalf("resolved devices %p %p %p %p; want jobs 0 and 2 on entry 0, job 3 on the default", got[0], got[1], got[2], got[3])
	}
	for _, k := range []int{2, -1} {
		f.Shard.Jobs[1].Device = &k
		spec, err := f.Shard.Spec(1)
		if !errors.Is(err, ErrDeviceIndex) || spec.Device != nil || spec.Index != 1 {
			t.Fatalf("index %d: spec %+v, err %v; want ErrDeviceIndex", k, spec, err)
		}
	}
}

// binBlock is a packed sample block of n samples.
func binBlock(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = PackSample(b, device.Sample{TimeSec: float64(i)})
	}
	return b
}

// binSample frames a binary sample body: kind, version byte v, the job as
// the given varint bytes, then block.
func binSample(v byte, job []byte, block []byte) []byte {
	return writeRaw(append(append([]byte{kindSample, v}, job...), block...))
}

// resultPrefix is a binary result body up to and including the trace
// presence byte of a present, trace-carrying run result.
func resultPrefix() []byte {
	b := []byte{kindResult, Version}
	b = binary.AppendVarint(b, 3)
	b = appendString(b, "skype")
	b = appendString(b, "c")
	b = appendF64(appendF64(b, 35.2), 32.5)
	b = binary.AppendVarint(b, 11)
	b = appendString(b, "")
	b = appendPresent(b, true)
	b = appendString(appendString(appendString(b, "skype"), "ondemand"), "usta")
	b = appendF64(b, 60)
	return appendPresent(b, true)
}

// TestReadFrameMalformed is the decode error table: every way a frame can
// be broken must map to a typed error, never a mis-decode or a hang.
func TestReadFrameMalformed(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		WriteFrame(&buf, &Frame{V: Version, Type: TypeDone})
		return buf.Bytes()
	}()
	// env frames an envelope of the given version around the rest of its
	// JSON object.
	env := func(v int, rest string) []byte {
		return writeRaw([]byte(fmt.Sprintf(`{"v":%d%s}`, v, rest)))
	}
	// id is a well-formed predictor ID.
	id := strings.Repeat("5e", 32)
	job := func(j int64) []byte { return binary.AppendVarint(nil, j) }
	result := func() []byte {
		return appendResult(nil, Version, &ResultFrame{Index: 1, Result: &device.RunResult{Trace: &trace.TimeSeries{}}})
	}
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"empty stream", nil, io.EOF},
		{"truncated header", good[:2], io.ErrUnexpectedEOF},
		{"truncated payload", good[:len(good)-3], io.ErrUnexpectedEOF},
		{"oversized length prefix", func() []byte {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
			return hdr[:]
		}(), ErrFrameTooLarge},
		{"empty payload", writeRaw(nil), ErrBadFrame},
		{"invalid json", writeRaw([]byte(fmt.Sprintf(`{"v":%d,`, Version))), ErrBadFrame},
		{"unknown field", env(Version, `,"type":"done","zzz":true`), ErrBadFrame},
		{"trailing bytes after the envelope", writeRaw([]byte(fmt.Sprintf(`{"v":%d,"type":"done"}{}`, Version))), ErrBadFrame},
		{"wrong version", env(Version+1, `,"type":"done"`), ErrVersion},
		{"newer version with unknown envelope fields", env(Version+1, `,"type":"done","future":{}`), ErrVersion},
		{"newer version failing the strict decode", env(Version+1, `,"type":"shard","shard":{"jobs":"seven"}`), ErrVersion},
		{"v1 per-sample frame", writeRaw([]byte(`{"v":1,"type":"sample","sample":{"job":0,"sample":{"TimeSec":1,"SkinC":31,"ScreenC":30,"DieC":40,"BatteryC":29,"FreqMHz":1512,"Util":0.5,"MaxLevel":11}}}`)), ErrVersion},
		{"v2 shard frame", writeRaw([]byte(`{"v":2,"type":"shard","shard":{"jobs":[],"predictor":{"algorithm":"REPTree"}}}`)), ErrVersion},
		{"v3 shard frame", writeRaw([]byte(`{"v":3,"type":"shard","shard":{"jobs":[],"same_predictor":true}}`)), ErrVersion},
		{"v4 JSON sample frame", env(4, fmt.Sprintf(`,"type":"sample","sample":{"job":0,"samples":%q}`, base64.StdEncoding.EncodeToString(binBlock(1)))), ErrVersion},
		{"v5 shard frame carrying an engine code", env(5, `,"type":"shard","shard":{"jobs":[],"event":3}`), ErrVersion},
		{"unknown type", env(Version, `,"type":"gossip"`), ErrBadFrame},
		{"shard frame without payload", env(Version, `,"type":"shard"`), ErrBadFrame},
		{"shard frame with unknown batched field", env(Version, `,"type":"shard","shard":{"jobs":[],"batched":true}`), ErrBadFrame},
		{"v6 shard frame carrying an engine code", env(6, `,"type":"shard","shard":{"jobs":[],"event":3}`), ErrVersion},
		{"shard job carrying its device config inline", env(Version, `,"type":"shard","shard":{"jobs":[{"index":0,"workload":{"name":"game","seed":1},"seed":7,"device":{"StepSec":0.05}}]}`), ErrBadFrame},
		{"shard frame whose device table is not an array", env(Version, `,"type":"shard","shard":{"devices":{"StepSec":0.05},"jobs":[{"index":0,"workload":{"name":"game","seed":1},"seed":7,"device":0}]}`), ErrBadFrame},
		{"shard job carrying a per-cell deadline", env(Version, `,"type":"shard","shard":{"jobs":[{"index":0,"workload":{"name":"game","seed":1},"seed":7,"deadline_sec":5}]}`), ErrBadFrame},
		{"shard frame with a predictor and same_predictor", env(Version, `,"type":"shard","shard":{"jobs":[],"predictor":{"algorithm":"REPTree"},"same_predictor":true}`), ErrBadFrame},
		{"shard frame with predictor bytes but no predictor_id", env(Version, `,"type":"shard","shard":{"jobs":[],"predictor":{"algorithm":"REPTree"}}`), ErrBadFrame},
		{"shard frame with a short predictor_id", env(Version, fmt.Sprintf(`,"type":"shard","shard":{"jobs":[],"predictor_id":%q}`, id[:63])), ErrBadFrame},
		{"shard frame with an uppercase predictor_id", env(Version, fmt.Sprintf(`,"type":"shard","shard":{"jobs":[],"predictor_id":%q}`, strings.ToUpper(id))), ErrBadFrame},
		{"hello frame listing more predictors than a worker holds", env(Version, fmt.Sprintf(`,"type":"hello","hello":{"proto":%d,"capacity":1,"predictors":[%s]}`,
			Version, strings.TrimSuffix(strings.Repeat(fmt.Sprintf("%q,", id), MaxPredictors+1), ","))), ErrBadFrame},
		{"hello frame listing a malformed predictor ID", env(Version, fmt.Sprintf(`,"type":"hello","hello":{"proto":%d,"capacity":1,"predictors":[%q,"g%s"]}`, Version, id, id[1:])), ErrBadFrame},
		{"JSON sample envelope", env(Version, fmt.Sprintf(`,"type":"sample","sample":{"job":0,"samples":%q}`, base64.StdEncoding.EncodeToString(binBlock(1)))), ErrBadFrame},
		{"JSON sample envelope without payload", env(Version, `,"type":"sample"`), ErrBadFrame},
		{"JSON result envelope", env(Version, `,"type":"result","result":{"index":2,"err":"boom"}`), ErrBadFrame},
		{"JSON result envelope without payload", env(Version, `,"type":"result"`), ErrBadFrame},
		{"error frame without message", env(Version, `,"type":"error"`), ErrBadFrame},
		{"unknown kind byte", writeRaw([]byte{0x03, Version, 0}), ErrBadFrame},
		{"zero kind byte", writeRaw(append([]byte{0x00}, good[5:]...)), ErrBadFrame},
		{"binary body without a version byte", writeRaw([]byte{kindSample}), ErrBadFrame},
		{"binary sample frame of version 4", binSample(4, job(0), binBlock(1)), ErrVersion},
		{"binary result frame of a newer version", writeRaw(append([]byte{kindResult, Version + 1}, result()[2:]...)), ErrVersion},
		{"sample frame with a truncated job varint", binSample(Version, []byte{0x80}, nil), ErrBadFrame},
		{"sample frame with an overlong job varint", binSample(Version, bytes.Repeat([]byte{0xff}, 11), binBlock(1)), ErrBadFrame},
		{"sample frame for a negative job", binSample(Version, job(-1), binBlock(1)), ErrBadFrame},
		{"sample frame without payload", writeRaw([]byte{kindSample, Version}), ErrBadFrame},
		{"sample frame with empty block", binSample(Version, job(0), nil), ErrBadFrame},
		{"sample frame with a partial sample", binSample(Version, job(0), make([]byte, 2*SampleSize+1)), ErrBadFrame},
		{"sample frame over the batch size", binSample(Version, job(1), binBlock(SampleBatch+1)), ErrBadFrame},
		{"result frame without payload", writeRaw([]byte{kindResult, Version}), ErrBadFrame},
		{"result frame with a truncated index varint", writeRaw([]byte{kindResult, Version, 0x80}), ErrBadFrame},
		{"result frame with a truncated string", writeRaw(append(binary.AppendUvarint([]byte{kindResult, Version, 0}, 10), "abc"...)), ErrBadFrame},
		{"result frame with a truncated float", writeRaw(resultPrefix()[:len(resultPrefix())-6]), ErrBadFrame},
		{"result frame cut after the trace presence byte", writeRaw(resultPrefix()), ErrBadFrame},
		{"result frame with a time axis longer than the frame", writeRaw(append(binary.AppendUvarint(resultPrefix(), 1<<40), make([]byte, 64)...)), ErrBadFrame},
		{"result frame with a float count one past the bytes left", writeRaw(append(binary.AppendUvarint(resultPrefix(), 1+3), make([]byte, 2*8+7)...)), ErrBadFrame},
		{"result frame with more series than bytes left", writeRaw(append(binary.AppendUvarint(append(resultPrefix(), 0), 1+1<<20), 0, 0)), ErrBadFrame},
		{"result frame with a record count beyond the bytes left", writeRaw(append(binary.AppendUvarint(append(resultPrefix()[:len(resultPrefix())-1], 0), 1+3), make([]byte, recordSize+11*8)...)), ErrBadFrame},
		{"result frame with a presence byte of 2", writeRaw(append(resultPrefix()[:len(resultPrefix())-1], 2)), ErrBadFrame},
		{"trailing bytes after a result", writeRaw(append(result(), 0)), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.input))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestMaterializeErrors is the spec-validation error table.
func TestMaterializeErrors(t *testing.T) {
	ok := fleet.JobSpec{Workload: fleet.WorkloadRef{Name: "skype"}, Seed: 1}
	cases := []struct {
		name string
		spec func(fleet.JobSpec) fleet.JobSpec
		want string
	}{
		{"no workload", func(s fleet.JobSpec) fleet.JobSpec { s.Workload.Name = ""; return s }, "no workload"},
		{"unknown workload", func(s fleet.JobSpec) fleet.JobSpec { s.Workload.Name = "crysis"; return s }, "unknown workload"},
		{"unknown controller", func(s fleet.JobSpec) fleet.JobSpec { s.Controller = "magic"; return s }, "unknown controller"},
		{"usta without limit", func(s fleet.JobSpec) fleet.JobSpec { s.Controller = "usta"; return s }, "positive limit"},
		{"usta without predictor", func(s fleet.JobSpec) fleet.JobSpec { s.Controller = "usta"; s.LimitC = 37; return s }, "no predictor"},
		{"unpinned seed", func(s fleet.JobSpec) fleet.JobSpec { s.Seed = 0; return s }, "no pinned seed"},
		{"unknown governor", func(s fleet.JobSpec) fleet.JobSpec { s.Governor = "warp"; return s }, "unknown governor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Materialize(tc.spec(ok), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := Materialize(ok, nil); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestMaterializedJobRunsLikeLocal: a spec materialized in-process must
// reproduce the exact result of the hand-built job it describes.
func TestMaterializedJobRunsLikeLocal(t *testing.T) {
	spec := fleet.JobSpec{
		Name:     "w",
		Workload: fleet.WorkloadRef{Name: "skype", Seed: 3},
		Governor: "conservative",
		Seed:     55,
		DurSec:   40,
	}
	job, err := Materialize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, _ := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})
	got := gotAll[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	refAll, _ := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})
	ref := refAll[0]
	if got.Result.EnergyJ != ref.Result.EnergyJ || got.Result.MaxSkinC != ref.Result.MaxSkinC {
		t.Fatal("materialized job is not deterministic")
	}
	if got.SeedUsed != 55 {
		t.Fatalf("seed %d, want the spec's 55", got.SeedUsed)
	}
	if got.Result.Governor != "conservative" {
		t.Fatalf("governor %q, want conservative", got.Result.Governor)
	}
}

// TestResultFrameRoundTripWithTrace: traced results survive the boundary
// with a working trace index on the far side.
func TestResultFrameRoundTripWithTrace(t *testing.T) {
	job, err := Materialize(fleet.JobSpec{
		Workload: fleet.WorkloadRef{Name: "skype", Seed: 3}, Seed: 9, DurSec: 30,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})
	res := all[0]
	if res.Err != nil || res.Result.Trace == nil {
		t.Fatalf("reference run broken: %+v", res)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{V: Version, Type: TypeResult, Result: EncodeResult(res)}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Result.Decode()
	if got.SeedUsed != res.SeedUsed || got.Index != res.Index || got.Name != res.Name || got.Err != nil {
		t.Fatalf("job identity diverged across the boundary: %+v", got)
	}
	// Every aggregate, every trace column and every record, bit for bit.
	if err := bitEqual(reflect.ValueOf(got.Result), reflect.ValueOf(res.Result), "result"); err != nil {
		t.Fatalf("round trip changed %v", err)
	}
	if len(got.Result.Records) == 0 || len(got.Result.Trace.Series) == 0 {
		t.Fatalf("reference run retained %d records and %d series; want both", len(got.Result.Records), len(got.Result.Trace.Series))
	}
	for _, s := range res.Result.Trace.Series {
		if got.Result.Trace.Lookup(s.Name) == nil {
			t.Fatalf("decoded trace cannot look up %q (Reindex not applied)", s.Name)
		}
	}
}

// tracedResult is a small result frame that uses every part of the result
// codec, special floats and a nil series included.
func tracedResult() *ResultFrame {
	nan := math.Float64frombits(0x7ff8000000000abc)
	return &ResultFrame{
		Index: 9, Name: "skype/usta", User: users.User{ID: "c", SkinLimitC: 35.2, ScreenLimitC: 32.5}, SeedUsed: -4,
		Result: &device.RunResult{
			Workload: "skype", Governor: "ondemand", Ctrl: "usta", DurSec: 2,
			Trace: &trace.TimeSeries{TimeSec: []float64{0, 1}, Series: []*trace.Series{
				{Name: "skin_c", Unit: "C", Values: []float64{31.5, nan}},
				nil,
				{Name: "util", Values: []float64{}},
			}},
			Records:  []sensors.Record{{TimeSec: 1, CPUTempC: 40, BatteryTempC: 29, Util: 0.5, FreqMHz: 1512, SkinTempC: nan, ScreenTempC: math.Inf(-1)}},
			MaxSkinC: 31.5, MaxDieC: math.Inf(1), EnergyJ: math.Copysign(0, -1), StartSoC: 1, EndSoC: 0.99,
		},
	}
}

// bitEqual compares got and want field by field over exported fields,
// floats by their bits, telling nil slices and pointers from empty and
// non-nil ones. It fails on a kind it does not know, so a field of a new
// kind cannot slip past the comparison.
func bitEqual(got, want reflect.Value, path string) error {
	if got.Type() != want.Type() {
		return fmt.Errorf("%s: type %v, want %v", path, got.Type(), want.Type())
	}
	switch want.Kind() {
	case reflect.Float64:
		if g, w := math.Float64bits(got.Float()), math.Float64bits(want.Float()); g != w {
			return fmt.Errorf("%s: %#x, want %#x", path, g, w)
		}
	case reflect.Int, reflect.Int64:
		if got.Int() != want.Int() {
			return fmt.Errorf("%s: %d, want %d", path, got.Int(), want.Int())
		}
	case reflect.String:
		if got.String() != want.String() {
			return fmt.Errorf("%s: %q, want %q", path, got.String(), want.String())
		}
	case reflect.Pointer, reflect.Slice:
		if got.IsNil() != want.IsNil() {
			return fmt.Errorf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())
		}
		if want.Kind() == reflect.Pointer {
			if want.IsNil() {
				return nil
			}
			return bitEqual(got.Elem(), want.Elem(), path)
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("%s: %d elements, want %d", path, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if err := bitEqual(got.Index(i), want.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			if f := want.Type().Field(i); f.IsExported() {
				if err := bitEqual(got.Field(i), want.Field(i), path+"."+f.Name); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("%s: bitEqual does not compare %v", path, want.Kind())
	}
	return nil
}

// filler sets every exported field it reaches to a value no other field
// holds, cycling through the floats a text codec loses.
type filler struct {
	t *testing.T
	n int
}

func (f *filler) fill(v reflect.Value, path string) {
	f.n++
	switch v.Kind() {
	case reflect.Float64:
		special := []float64{math.Float64frombits(0x7ff8000000000000 | uint64(f.n)), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
		if f.n%5 < len(special) {
			v.SetFloat(special[f.n%5])
		} else {
			v.SetFloat(float64(f.n) + 1.0/3)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(-f.n * 1001))
	case reflect.String:
		v.SetString(fmt.Sprintf("%s#%d", path, f.n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if fd := v.Type().Field(i); fd.IsExported() {
				f.fill(v.Field(i), path+"."+fd.Name)
			}
		}
	default:
		f.t.Fatalf("%s: the filler does not know %v; teach it and the result codec the new field", path, v.Kind())
	}
}

// TestResultCodecCoversEveryField pins the binary result codec to the
// types it carries: a ResultFrame with every exported field filled by
// reflection — into device.RunResult, trace.TimeSeries, trace.Series,
// sensors.Record and users.User — must round-trip bit for bit, and so
// must its nil-versus-empty variants. A field added to any of those types
// without codec support fails here.
func TestResultCodecCoversEveryField(t *testing.T) {
	variants := []struct {
		name string
		edit func(*ResultFrame)
	}{
		{"every field set", func(*ResultFrame) {}},
		{"nil series", func(rf *ResultFrame) { rf.Result.Trace.Series[1] = nil }},
		{"empty and nil float slices", func(rf *ResultFrame) {
			rf.Result.Trace.TimeSec = nil
			rf.Result.Trace.Series[0].Values = []float64{}
			rf.Result.Trace.Series[2].Values = nil
		}},
		{"empty series and records", func(rf *ResultFrame) {
			rf.Result.Trace.Series = []*trace.Series{}
			rf.Result.Records = []sensors.Record{}
		}},
		{"nil series list and records", func(rf *ResultFrame) {
			rf.Result.Trace.Series = nil
			rf.Result.Records = nil
		}},
		{"no trace", func(rf *ResultFrame) { rf.Result.Trace = nil }},
		{"no run result", func(rf *ResultFrame) { rf.Result = nil }},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			want := &ResultFrame{}
			(&filler{t: t}).fill(reflect.ValueOf(want).Elem(), "ResultFrame")
			tc.edit(want)
			var buf bytes.Buffer
			if err := WriteFrame(&buf, &Frame{V: Version, Type: TypeResult, Result: want}); err != nil {
				t.Fatal(err)
			}
			f, err := ReadFrame(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := bitEqual(reflect.ValueOf(f.Result), reflect.ValueOf(want), "ResultFrame"); err != nil {
				t.Fatalf("round trip changed %v", err)
			}
			f.Result.Decode() // reindexes the trace, nil series included
		})
	}
}

// leafDoc is a minimal valid predictor document in wire form: two
// single-leaf trees.
var leafDoc = []byte(`{"algorithm":"REPTree","skin":{"root":{"v":30,"leaf":true}},"screen":{"root":{"v":31,"leaf":true}}}`)

// FuzzReadFrame: no byte stream makes ReadFrame panic. Every input either
// fails with one of the package's typed errors (or a clean or unexpected
// end of stream), or decodes to a frame that re-encodes and re-reads
// equal, compared as encoded. Decoding a binary body allocates at most a
// small multiple of the bytes it was given. The committed corpus under
// testdata/fuzz/FuzzReadFrame adds full, truncated and odd-length sample
// blocks, each malformed binary case of TestReadFrameMalformed, the
// predictor ID rules, shard requests over a device table (one with a job
// naming an index outside it), and frames of earlier versions.
func FuzzReadFrame(f *testing.F) {
	var block []byte
	for i := 0; i < 3; i++ {
		block = PackSample(block, device.Sample{TimeSec: float64(i), SkinC: 30 + float64(i), MaxLevel: i})
	}
	for _, fr := range []*Frame{
		{V: Version, Type: TypeSample, Sample: &SampleFrame{Job: 4, Samples: block}},
		{V: Version, Type: TypeSample, Sample: &SampleFrame{Job: 300, Samples: binBlock(SampleBatch)}},
		{V: Version, Type: TypeResult, Result: tracedResult()},
		{V: Version, Type: TypeHello, Hello: &HelloFrame{Proto: Version, Capacity: 2}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{Jobs: []ShardJob{{JobSpec: fleet.JobSpec{Index: 1, Workload: fleet.WorkloadRef{Name: "skype"}, Seed: 3, DurSec: 10}}}}},
		{V: Version, Type: TypeResult, Result: &ResultFrame{Index: 2, Err: "boom"}},
		{V: Version, Type: TypeDone},
		{V: Version, Type: TypeHello, Hello: &HelloFrame{Proto: Version, Capacity: 1, Predictors: []string{fleet.PredictorID(leafDoc)}}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{PredictorID: fleet.PredictorID(leafDoc), Predictor: leafDoc}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A JSON envelope's decoding cost is encoding/json's; a binary
		// body's is this package's count checks. Beyond the read buffer
		// (at most 64 KiB before the bytes arrive), decoding may allocate
		// a few times the body: series pointers take 8 bytes per 1-byte
		// presence flag.
		if len(data) > 4 && data[4] != '{' {
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+80<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
			}
		}
		if err != nil {
			for _, typed := range []error{ErrBadFrame, ErrVersion, ErrFrameTooLarge, io.EOF, io.ErrUnexpectedEOF} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		enc := bytes.Clone(buf.Bytes())
		again, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame does not re-read: %v", err)
		}
		if err := WriteFrame(&buf, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, buf.Bytes()) {
			t.Fatalf("round trip changed the frame:\n%s\n%s", enc[4:], buf.Bytes()[4:])
		}
	})
}

// TestEncodePredictorWireBytes: the document EncodePredictor returns is
// compact, with no trailing newline, and is byte for byte what a shard
// frame carries, so its ID names the bytes a worker receives; the
// document decodes back to the same predictions.
func TestEncodePredictorWireBytes(t *testing.T) {
	want, err := DecodePredictor(leafDoc)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodePredictor(want)
	if err != nil {
		t.Fatal(err)
	}
	doc := enc.Doc()
	if len(doc) == 0 || doc[len(doc)-1] == '\n' {
		t.Fatalf("document ends %q; want the compact wire form", doc[max(0, len(doc)-8):])
	}
	if enc.ID() != fleet.PredictorID(doc) {
		t.Fatalf("ID %s does not hash the document", enc.ID())
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{V: Version, Type: TypeShard, Shard: &ShardRequest{PredictorID: enc.ID(), Predictor: doc}}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Shard.Predictor, doc) || f.Shard.PredictorID != enc.ID() {
		t.Fatalf("the frame carried %d different bytes; want exactly EncodePredictor's %d", len(f.Shard.Predictor), len(doc))
	}
	got, err := DecodePredictor(f.Shard.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	if skin, screen := got.PredictSkin(sensors.Record{}), got.PredictScreen(sensors.Record{}); skin != 30 || screen != 31 {
		t.Fatalf("decoded predictor predicts %v, %v; want 30, 31", skin, screen)
	}
	if p, err := EncodePredictor(nil); p != nil || err != nil {
		t.Fatalf("nil predictor encoded as %v, %v", p, err)
	}
}
