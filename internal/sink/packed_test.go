package sink

import (
	"bytes"
	"testing"

	"repro/internal/device"
)

// blockRecorder is a PackedSink that keeps the blocks it is handed.
type blockRecorder struct {
	recorder
	blocks [][]byte
}

func (b *blockRecorder) AcceptPacked(job JobID, block []byte) {
	b.jobs = append(b.jobs, job)
	b.blocks = append(b.blocks, block)
}

// TestTeeForwardsBlocks: a Tee hands a packed block as is to every
// block-taking leaf, nested Tees included, and each of its samples once
// to every other leaf; a Remap forwards blocks under the outer job ID.
func TestTeeForwardsBlocks(t *testing.T) {
	var block []byte
	for i := 1; i <= 3; i++ {
		block = PackSample(block, sample(float64(i)))
	}
	direct, nested := &blockRecorder{}, &blockRecorder{}
	outer, inner := &recorder{}, &recorder{}
	tee := NewTee(outer, NewTee(nested, inner), NewRemap(direct, []int{0, 0, 9}))
	tee.AcceptPacked(2, block)
	if len(nested.blocks) != 1 || &nested.blocks[0][0] != &block[0] || nested.jobs[0] != 2 {
		t.Fatalf("nested packed leaf got %d blocks for jobs %v, want the block itself for job 2", len(nested.blocks), nested.jobs)
	}
	if len(direct.blocks) != 1 || !bytes.Equal(direct.blocks[0], block) || direct.jobs[0] != 9 {
		t.Fatalf("remapped packed leaf got jobs %v, want the block for job 9", direct.jobs)
	}
	for name, r := range map[string]*recorder{"outer": outer, "nested": inner} {
		if len(r.jobs) != 3 || r.jobs[0] != 2 || r.samples[2] != sample(3) {
			t.Fatalf("%s sample leaf got jobs %v samples %+v, want samples 1..3 of job 2", name, r.jobs, r.samples)
		}
	}
}

// TestAcceptBlockDecodesForPlainSinks: a sink without AcceptPacked gets
// every sample of the block, in order, bit-exact.
func TestAcceptBlockDecodesForPlainSinks(t *testing.T) {
	want := []device.Sample{sample(1), sample(2)}
	var block []byte
	for _, s := range want {
		block = PackSample(block, s)
	}
	var got []device.Sample
	AcceptBlock(Func(func(job JobID, s device.Sample) {
		if job != 4 {
			t.Fatalf("job %d, want 4", job)
		}
		got = append(got, s)
	}), 4, block)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}
