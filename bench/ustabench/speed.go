package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host, whose speed per
// instruction drifts with other tenants' load. On the 2-vCPU KVM guest
// (Intel Xeon) it was sized on, a fixed 0.1 ms float loop ran 1.5x slower
// in some seconds than in others, and one sweep-local rep took from 1.3 s
// to 3.1 s; process CPU time stretched with wall time. Medians over a 20-second run do not remove that: ten
// runs of sweep-local spread by 25% between their quartiles.
//
// A speedMeter measures the drift while the program runs. A background
// goroutine runs one of three small fixed kernels every speedTick — dense
// float arithmetic, hashed table lookups with data-dependent branches, and
// small allocations with map and interface calls, the instruction mixes of
// the program's physics, decision and service layers — and records how
// long it took. A rep's slowdown is the geometric mean, over the kernels,
// of the median kernel time during the rep over the kernel's nominal time;
// across runs, rep time grew with it in proportion (log-log slope 1.03).
// Dividing the timings by it cut those ten runs' spread to 7.5%. The
// kernels never call program code, so a change to the program moves the
// normalized timings and not the slowdown.
//
// The kernels' medians do not see the other drift: the host descheduling
// the guest's vCPUs outright. The service workloads, whose goroutines hand
// work to each other across both cores, lost up to 18% of their throughput
// in minutes when the guest's steal counter read 8-14% of its CPU time.
// Wall times are therefore also scaled by the share of CPU time the host
// left the guest (available).
type speedMeter struct {
	stopc chan struct{}
	wg    sync.WaitGroup

	mu      sync.Mutex
	samples []speedSample

	sink float64 // the kernels' results, kept live; the sampler's alone
}

type speedSample struct {
	at     time.Time
	kernel int
	d      time.Duration
}

// speedTick is the sampling period. Each kernel takes about 0.1 ms, so the
// meter keeps about 1% of one core busy.
const speedTick = 10 * time.Millisecond

// speedKernels are the reference kernels with their nominal times, the
// times of each in the guest's fast phases while the program runs. The
// nominal times only fix the scale of the normalized timings; neither they
// nor the kernels may change once a baseline has been measured.
var speedKernels = []struct {
	run     func() float64
	nominal time.Duration
}{
	{floatKernel, 110 * time.Microsecond},
	{branchKernel, 190 * time.Microsecond},
	{allocKernel, 85 * time.Microsecond},
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{stopc: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tk := time.NewTicker(speedTick)
		defer tk.Stop()
		for i := 0; ; i = (i + 1) % len(speedKernels) {
			select {
			case <-m.stopc:
				return
			case <-tk.C:
			}
			t := time.Now()
			m.sink += speedKernels[i].run()
			d := time.Since(t)
			m.mu.Lock()
			m.samples = append(m.samples, speedSample{t, i, d})
			m.mu.Unlock()
		}
	}()
	return m
}

// stop ends the sampler and waits for it.
func (m *speedMeter) stop() {
	close(m.stopc)
	m.wg.Wait()
}

// slowdown returns how much slower than nominal the machine ran between a
// and b, and the time the meter itself ran then (CPU the program did not
// use). A kernel with no sample in the interval falls back to all of its
// samples so far; with none at all the slowdown is 1.
func (m *speedMeter) slowdown(a, b time.Time) (float64, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	in := make([][]float64, len(speedKernels))
	all := make([][]float64, len(speedKernels))
	var busy time.Duration
	for _, s := range m.samples {
		r := float64(s.d) / float64(speedKernels[s.kernel].nominal)
		all[s.kernel] = append(all[s.kernel], r)
		if !s.at.Before(a) && s.at.Before(b) {
			in[s.kernel] = append(in[s.kernel], r)
			busy += s.d
		}
	}
	logSum, n := 0.0, 0
	for k := range speedKernels {
		rs := in[k]
		if len(rs) == 0 {
			rs = all[k]
		}
		if len(rs) == 0 {
			continue
		}
		logSum += math.Log(median(rs))
		n++
	}
	if n == 0 {
		return 1, busy
	}
	return math.Exp(logSum / float64(n)), busy
}

// available is the share of the guest's CPU time the host left it over a
// wall interval, given the CPU time it stole then. It is at least 0.5, so
// the 10 ms granularity of the steal counter cannot blow up a short
// interval's timing.
func available(stolen, wall time.Duration) float64 {
	if wall <= 0 {
		return 1
	}
	return max(1-stolen.Seconds()/(float64(runtime.NumCPU())*wall.Seconds()), 0.5)
}

// floatKernel is dense float arithmetic: a 16x16 matrix-vector product fed
// back through a bounded nonlinearity, like a thermal network step.
func floatKernel() float64 {
	var a [16][16]float64
	var x, y [16]float64
	for i := range a {
		for j := range a[i] {
			a[i][j] = 1 / float64(i+j+2)
		}
		x[i] = float64(i) / 16
	}
	for it := 0; it < 400; it++ {
		for i := range y {
			s := 0.0
			for j := range x {
				s += a[i][j] * x[j]
			}
			y[i] = s
		}
		for i := range x {
			x[i] = 0.5*y[i] + 1/(1+math.Abs(y[i]))
		}
	}
	return x[0]
}

// branchTable is branchKernel's 64 KiB lookup table.
var branchTable = func() *[1 << 14]uint32 {
	var t [1 << 14]uint32
	s := uint64(7)
	for i := range t {
		s = s*6364136223846793005 + 1442695040888963407
		t[i] = uint32(s >> 32)
	}
	return &t
}()

// branchKernel is integer work with unpredictable branches: splitmix64
// hashes index a table, and the value read picks the next operation, like
// noise draws and governor decisions.
func branchKernel() float64 {
	s := uint64(12345)
	acc := uint32(0)
	for i := 0; i < 12000; i++ {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v := branchTable[z&(1<<14-1)]
		switch {
		case v&3 == 0:
			acc += v >> 3
		case v&3 == 1:
			acc ^= v
		case v&7 == 2:
			acc -= v >> 5
		default:
			acc = acc*31 + 7
		}
	}
	return float64(acc)
}

type kernelCell struct {
	id    int
	temps []float64
}

type stepper interface{ step(x float64) float64 }

type linStep struct{ a, b float64 }

func (l linStep) step(x float64) float64 { return l.a*x + l.b }

type capStep struct{ hi float64 }

func (c capStep) step(x float64) float64 { return math.Min(x, c.hi) }

// allocKernel is allocation-heavy object code: small heap records filled
// through interface calls, sorted, and kept in a map, like the service's
// per-sample frames and bookkeeping.
func allocKernel() float64 {
	m := map[int]*kernelCell{}
	steps := []stepper{linStep{0.9, 1}, capStep{40}, linStep{1.01, -0.2}}
	acc := 0.0
	for i := 0; i < 300; i++ {
		c := &kernelCell{id: i, temps: make([]float64, 8)}
		x := float64(i % 50)
		for k := range c.temps {
			x = steps[(i+k)%len(steps)].step(x)
			c.temps[k] = x
		}
		sort.Float64s(c.temps)
		m[i%64] = c
		if o := m[(i*7)%64]; o != nil {
			acc += o.temps[0]
		}
	}
	return acc
}
