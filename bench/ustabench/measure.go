package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenCPU reads the CPU time the hypervisor took from this guest, summed
// over its CPUs ("steal" in /proc/stat, in 1/100 s). It is 0 where the
// kernel does not report it.
func stolenCPU() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runtimeSample is a point-in-time read of the Go runtime counters the
// per-layer runtime metrics are deltas of.
type runtimeSample struct {
	allocBytes float64
	gcCPUSec   float64
	cpu        time.Duration
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{allocBytes: metricValue(ms[0]), gcCPUSec: metricValue(ms[1]), cpu: cpuTime()}
}

func metricValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// heapLiveMB forces a collection and reports the live heap it left.
func heapLiveMB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return metricValue(ms[0]) / (1 << 20)
}

// quantile is the type-7 (linear interpolation) quantile of vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// histogram is a log-linear latency histogram: 8 sub-buckets per power of
// two, so a quantile read from it is within about 9% of the exact value.
// Hot calls (governor, controller, sink) are counted here instead of being
// recorded one span each.
type histogram [64 * 8]uint32

func histBucket(ns int64) int {
	if ns < 8 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // 2^e <= ns < 2^(e+1), e >= 3
	sub := int(uint64(ns)>>(e-3)) & 7
	return e*8 + sub
}

// bucketMid returns a representative value of bucket b.
func bucketMid(b int) float64 {
	if b < 8 {
		return float64(b)
	}
	e, sub := b/8, b%8
	lo := float64(uint64(8+sub) << (e - 3))
	width := float64(uint64(1) << (e - 3))
	return lo + width/2
}

func (h *histogram) add(ns int64) { h[histBucket(ns)]++ }

func (h *histogram) merge(o *histogram) {
	for i, n := range o {
		h[i] += n
	}
}

func (h *histogram) quantile(q float64) float64 {
	var total uint64
	for _, n := range h {
		total += uint64(n)
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, n := range h {
		cum += uint64(n)
		if cum >= rank {
			return bucketMid(b)
		}
	}
	return 0
}

// span is one timed interval of the traced pass: a layer boundary crossed
// by the harness. Job is the cell or submission index it belongs to (-1:
// none); Parent is the enclosing span's ID (-1: a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced pass's spans in memory until the run writes
// them out.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent, job int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// reserve allocates a span ID for a parent whose end is not known yet;
// finish completes it.
func (r *recorder) reserve(name string, parent int, start time.Time) int {
	return r.add(name, parent, -1, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end.Sub(r.epoch).Nanoseconds()
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
