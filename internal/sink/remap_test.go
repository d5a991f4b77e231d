package sink

import (
	"testing"

	"repro/internal/device"
)

// recorder captures forwarded (job, sample) pairs.
type recorder struct {
	jobs    []JobID
	samples []device.Sample
	closed  int
}

func (r *recorder) Accept(job JobID, s device.Sample) {
	r.jobs = append(r.jobs, job)
	r.samples = append(r.samples, s)
}
func (r *recorder) Close() error { r.closed++; return nil }

func TestRemapTranslatesAndDrops(t *testing.T) {
	rec := &recorder{}
	rm := NewRemap(rec, []int{4, 7})
	rm.Accept(0, device.Sample{})
	rm.Accept(1, device.Sample{})
	rm.Accept(2, device.Sample{})  // outside the table: dropped
	rm.Accept(-1, device.Sample{}) // negative: dropped
	if len(rec.jobs) != 2 || rec.jobs[0] != 4 || rec.jobs[1] != 7 {
		t.Fatalf("forwarded jobs = %v, want [4 7]", rec.jobs)
	}
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.closed != 0 {
		t.Fatal("Remap must not close the wrapped sink")
	}
}
