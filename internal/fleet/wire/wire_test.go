package wire

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sensors"
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
			Jobs: []fleet.JobSpec{{
				Index:    7,
				Name:     "skype/usta",
				User:     users.User{ID: "c", SkinLimitC: 35.2, ScreenLimitC: 32.5},
				Workload: fleet.WorkloadRef{Name: "skype", Seed: 342},
				Seed:     301, DurSec: 60, TraceFree: true,
				Controller: "usta", LimitC: 37,
			}},
		}},
		{V: Version, Type: TypeSample, Sample: &SampleFrame{
			Job: 12, Samples: PackSample(nil, device.Sample{TimeSec: 1.5, SkinC: 31.25, FreqMHz: 1512, MaxLevel: 11}),
		}},
		{V: Version, Type: TypeResult, Result: &ResultFrame{Index: 4, Name: "glbench", SeedUsed: 99}},
		{V: Version, Type: TypeDone},
		{V: Version, Type: TypeError, Err: "boom"},
		{V: Version, Type: TypeHello, Hello: &HelloFrame{Proto: Version, Capacity: 2, Predictors: []string{strings.Repeat("0f", 32)}}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{PredictorID: strings.Repeat("ab", 32)}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{Workers: 2, WantSamples: true, Event: 3,
			PredictorID: fleet.PredictorID(leafDoc), Predictor: leafDoc, Jobs: []fleet.JobSpec{{Index: 2, Seed: 5}}}},
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
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Fatalf("round trip changed the frame:\n got %s\nwant %s", g, w)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{V: Version, Type: TypeShard, Shard: &ShardRequest{Jobs: []fleet.JobSpec{spec}}}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Shard.Jobs[0]
	if got.Device.Thermal.Ambient != cfg.Thermal.Ambient {
		t.Fatalf("ambient %v, want bit-exact %v", got.Device.Thermal.Ambient, cfg.Thermal.Ambient)
	}
	if got.Seed != spec.Seed || got.DurSec != spec.DurSec || got.Workload != spec.Workload {
		t.Fatalf("spec diverged: %+v vs %+v", got, spec)
	}
}

// TestReadFrameMalformed is the decode error table: every way a frame can
// be broken must map to a descriptive error, never a mis-decode or a hang.
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
	// block is a packed sample block of n samples, base64 as on the wire.
	block := func(n int) string {
		var b []byte
		for i := 0; i < n; i++ {
			b = PackSample(b, device.Sample{TimeSec: float64(i)})
		}
		return base64.StdEncoding.EncodeToString(b)
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
		{"invalid json", writeRaw([]byte(fmt.Sprintf(`{"v":%d,`, Version))), ErrBadFrame},
		{"unknown field", env(Version, `,"type":"done","zzz":true`), ErrBadFrame},
		{"trailing bytes after the envelope", writeRaw([]byte(fmt.Sprintf(`{"v":%d,"type":"done"}{}`, Version))), ErrBadFrame},
		{"wrong version", env(Version+1, `,"type":"done"`), ErrVersion},
		{"newer version with unknown envelope fields", env(Version+1, `,"type":"done","future":{}`), ErrVersion},
		{"newer version failing the strict decode", env(Version+1, `,"type":"sample","sample":{"job":"seven"}`), ErrVersion},
		{"v1 per-sample frame", writeRaw([]byte(`{"v":1,"type":"sample","sample":{"job":0,"sample":{"TimeSec":1,"SkinC":31,"ScreenC":30,"DieC":40,"BatteryC":29,"FreqMHz":1512,"Util":0.5,"MaxLevel":11}}}`)), ErrVersion},
		{"v2 shard frame", writeRaw([]byte(`{"v":2,"type":"shard","shard":{"jobs":[],"predictor":{"algorithm":"REPTree"}}}`)), ErrVersion},
		{"v3 shard frame", writeRaw([]byte(`{"v":3,"type":"shard","shard":{"jobs":[],"same_predictor":true}}`)), ErrVersion},
		{"unknown type", env(Version, `,"type":"gossip"`), ErrBadFrame},
		{"shard frame without payload", env(Version, `,"type":"shard"`), ErrBadFrame},
		{"shard frame with unknown batched field", env(Version, `,"type":"shard","shard":{"jobs":[],"batched":true}`), ErrBadFrame},
		{"shard frame with a predictor and same_predictor", env(Version, `,"type":"shard","shard":{"jobs":[],"predictor":{"algorithm":"REPTree"},"same_predictor":true}`), ErrBadFrame},
		{"shard frame with predictor bytes but no predictor_id", env(Version, `,"type":"shard","shard":{"jobs":[],"predictor":{"algorithm":"REPTree"}}`), ErrBadFrame},
		{"shard frame with a short predictor_id", env(Version, fmt.Sprintf(`,"type":"shard","shard":{"jobs":[],"predictor_id":%q}`, id[:63])), ErrBadFrame},
		{"shard frame with an uppercase predictor_id", env(Version, fmt.Sprintf(`,"type":"shard","shard":{"jobs":[],"predictor_id":%q}`, strings.ToUpper(id))), ErrBadFrame},
		{"hello frame listing more predictors than a worker holds", env(Version, fmt.Sprintf(`,"type":"hello","hello":{"proto":%d,"capacity":1,"predictors":[%s]}`,
			Version, strings.TrimSuffix(strings.Repeat(fmt.Sprintf("%q,", id), MaxPredictors+1), ","))), ErrBadFrame},
		{"hello frame listing a malformed predictor ID", env(Version, fmt.Sprintf(`,"type":"hello","hello":{"proto":%d,"capacity":1,"predictors":[%q,"g%s"]}`, Version, id, id[1:])), ErrBadFrame},
		{"sample frame without payload", env(Version, `,"type":"sample"`), ErrBadFrame},
		{"sample frame with empty block", env(Version, `,"type":"sample","sample":{"job":0,"samples":""}`), ErrBadFrame},
		{"sample frame with a partial sample", env(Version, fmt.Sprintf(`,"type":"sample","sample":{"job":0,"samples":%q}`,
			base64.StdEncoding.EncodeToString(make([]byte, 2*SampleSize+1)))), ErrBadFrame},
		{"sample frame over the batch size", env(Version, fmt.Sprintf(`,"type":"sample","sample":{"job":0,"samples":%q}`, block(SampleBatch+1))), ErrBadFrame},
		{"sample frame for a negative job", env(Version, fmt.Sprintf(`,"type":"sample","sample":{"job":-1,"samples":%q}`, block(1))), ErrBadFrame},
		{"result frame without payload", env(Version, `,"type":"result"`), ErrBadFrame},
		{"error frame without message", env(Version, `,"type":"error"`), ErrBadFrame},
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
	got := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})[0]
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	ref := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})[0]
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
	res := fleet.LocalRunner{}.Run(context.Background(), fleet.Config{Workers: 1}, []fleet.Job{job})[0]
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
	if got.Result.EnergyJ != res.Result.EnergyJ || got.SeedUsed != res.SeedUsed {
		t.Fatal("aggregates diverged across the boundary")
	}
	skin := got.Result.Trace.Lookup("skin_c")
	wantSkin := res.Result.Trace.Lookup("skin_c")
	if skin == nil {
		t.Fatal("decoded trace lost its index (Reindex not applied)")
	}
	if len(skin.Values) != len(wantSkin.Values) || skin.Values[3] != wantSkin.Values[3] {
		t.Fatal("trace values diverged across the boundary")
	}
	if len(got.Result.Records) != len(res.Result.Records) {
		t.Fatal("records diverged across the boundary")
	}
}

// leafDoc is a minimal valid predictor document in wire form: two
// single-leaf trees.
var leafDoc = []byte(`{"algorithm":"REPTree","skin":{"root":{"v":30,"leaf":true}},"screen":{"root":{"v":31,"leaf":true}}}`)

// FuzzReadFrame: no byte stream makes ReadFrame panic. Every input either
// fails with one of the package's typed errors (or a clean or unexpected
// end of stream), or decodes to a frame that re-encodes and re-reads
// equal, compared as encoded. The committed corpus under
// testdata/fuzz/FuzzReadFrame adds multi-sample, truncated and odd-length
// sample blocks, and the v4 predictor ID rules.
func FuzzReadFrame(f *testing.F) {
	var block []byte
	for i := 0; i < 3; i++ {
		block = PackSample(block, device.Sample{TimeSec: float64(i), SkinC: 30 + float64(i), MaxLevel: i})
	}
	for _, fr := range []*Frame{
		{V: Version, Type: TypeSample, Sample: &SampleFrame{Job: 4, Samples: block}},
		{V: Version, Type: TypeHello, Hello: &HelloFrame{Proto: Version, Capacity: 2}},
		{V: Version, Type: TypeShard, Shard: &ShardRequest{Jobs: []fleet.JobSpec{{Index: 1, Workload: fleet.WorkloadRef{Name: "skype"}, Seed: 3, DurSec: 10}}}},
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
		fr, err := ReadFrame(bytes.NewReader(data))
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
