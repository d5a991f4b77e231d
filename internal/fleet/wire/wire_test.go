package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/fleet"
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
			Job: 12, Sample: device.Sample{TimeSec: 1.5, SkinC: 31.25, FreqMHz: 1512, MaxLevel: 11},
		}},
		{V: Version, Type: TypeResult, Result: &ResultFrame{Index: 4, Name: "glbench", SeedUsed: 99}},
		{V: Version, Type: TypeDone},
		{V: Version, Type: TypeError, Err: "boom"},
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
		if got.Type != want.Type {
			t.Fatalf("type %q, want %q", got.Type, want.Type)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
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
		{"invalid json", writeRaw([]byte(`{"v":1,`)), ErrBadFrame},
		{"unknown field", writeRaw([]byte(`{"v":1,"type":"done","zzz":true}`)), ErrBadFrame},
		{"wrong version", writeRaw([]byte(`{"v":2,"type":"done"}`)), ErrVersion},
		{"newer version with unknown envelope fields", writeRaw([]byte(`{"v":2,"type":"done","future":{}}`)), ErrVersion},
		{"unknown type", writeRaw([]byte(`{"v":1,"type":"gossip"}`)), ErrBadFrame},
		{"shard frame without payload", writeRaw([]byte(`{"v":1,"type":"shard"}`)), ErrBadFrame},
		{"shard frame with unknown batched field", writeRaw([]byte(`{"v":1,"type":"shard","shard":{"jobs":[],"batched":true}}`)), ErrBadFrame},
		{"sample frame without payload", writeRaw([]byte(`{"v":1,"type":"sample"}`)), ErrBadFrame},
		{"result frame without payload", writeRaw([]byte(`{"v":1,"type":"result"}`)), ErrBadFrame},
		{"error frame without message", writeRaw([]byte(`{"v":1,"type":"error"}`)), ErrBadFrame},
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
