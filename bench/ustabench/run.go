package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// repOut is one rep of a workload's closed loop: one local sweep or one
// service submission awaited to its final result.
type repOut struct {
	start       time.Time
	latency     time.Duration // spec (or submission) to final aggregates
	cpu         time.Duration // process CPU time during the rep
	stolen      time.Duration // CPU time the host took from the guest during the rep
	cells       int           // cells completed without error
	failedCells int
	simSec      float64
	samples     int64
	comfort     []obs.Comfort

	// Service reps only.
	id          string
	submit      time.Duration // POST /jobs round trip
	firstFrame  time.Duration // submission start to the first streamed line
	streamBytes int64

	// Telemetry reps only.
	lastSample time.Duration // submission start to the stream's EOF
	perJob     []int64       // samples received per job
	peaks      []float64     // peak skin_c per job
	orderErr   error         // first out-of-order sample, if any
}

// eventsRep submits a spec and follows its SSE stream to the final frame.
func eventsRep(ctx context.Context, c *client, spec []byte) (repOut, error) {
	out := repOut{start: time.Now()}
	id, err := c.submit(ctx, spec)
	if err != nil {
		return out, err
	}
	out.id, out.submit = id, time.Since(out.start)
	fin, n, err := c.awaitFinal(ctx, id, func() { out.firstFrame = time.Since(out.start) })
	if err != nil {
		return out, err
	}
	out.latency, out.streamBytes = time.Since(out.start), n
	if fin.Status != "done" {
		return out, fmt.Errorf("job %s ended %s", id, fin.Status)
	}
	out.cells, out.failedCells = fin.Done-fin.Failed, fin.Failed
	out.samples = fin.Samples
	out.comfort = fin.Aggregates.Comfort
	return out, nil
}

// telemetryRep submits a spec, streams its ordered JSONL telemetry to EOF,
// then reads the job's status until it is terminal.
func telemetryRep(ctx context.Context, c *client, spec []byte, shape *scenario.Grid) (repOut, error) {
	out := repOut{start: time.Now()}
	id, err := c.submit(ctx, spec)
	if err != nil {
		return out, err
	}
	out.id, out.submit = id, time.Since(out.start)
	n := len(shape.Jobs)
	out.perJob, out.peaks = make([]int64, n), make([]float64, n)
	for i := range out.peaks {
		out.peaks[i] = math.Inf(-1)
	}
	lastJob, lastT := 0, math.Inf(-1)
	out.streamBytes, err = c.stream(ctx, "/jobs/"+id+"/telemetry",
		func() { out.firstFrame = time.Since(out.start) },
		func(line []byte) error {
			job, t, skin, err := telemetryLine(line)
			if err != nil {
				return err
			}
			if job < 0 || job >= n {
				return fmt.Errorf("telemetry for job %d of a %d-job grid", job, n)
			}
			if out.orderErr == nil && (job < lastJob || job == lastJob && t <= lastT) {
				out.orderErr = fmt.Errorf("job %s: sample (job %d, t=%g) after (job %d, t=%g)", id, job, t, lastJob, lastT)
			}
			lastJob, lastT = job, t
			out.perJob[job]++
			out.peaks[job] = math.Max(out.peaks[job], skin)
			return nil
		})
	if err != nil {
		return out, err
	}
	out.lastSample = time.Since(out.start)
	st, err := c.awaitStatus(ctx, id)
	if err != nil {
		return out, err
	}
	out.latency = time.Since(out.start)
	if st.Status != "done" {
		return out, fmt.Errorf("job %s ended %s: %s", id, st.Status, st.Error)
	}
	out.cells = st.Done
	for _, k := range out.perJob {
		out.samples += k
	}
	out.comfort = comfortRows(st.Comfort)
	return out, nil
}

// window is one measured closed loop.
type window struct {
	reps     []repOut
	cpu      time.Duration
	rss      float64 // VmHWM after the first rep
	rt0, rt1 runtimeSample
}

func (w *window) cells() (cells int, sim float64, samples int64) {
	for _, r := range w.reps {
		cells += r.cells
		sim += r.simSec
		samples += r.samples
	}
	return cells, sim, samples
}

// cellRate is the median over reps of cells completed per second.
func (w *window) cellRate() float64 {
	var rates []float64
	for _, r := range w.reps {
		rates = append(rates, float64(r.cells)/r.latency.Seconds())
	}
	return median(rates)
}

// timedLoop runs reps back to back, starting another while less than
// seconds have elapsed (and until minReps ran). Peak RSS is read after the
// first rep, so it does not grow with the number of reps that fit.
func timedLoop(seconds float64, minReps int, rep func() (repOut, error)) (window, error) {
	w := window{rt0: readRuntime()}
	start := time.Now()
	for len(w.reps) < minReps || time.Since(start).Seconds() < seconds {
		cpu, stolen := cpuTime(), stolenCPU()
		out, err := rep()
		if err != nil {
			return w, fmt.Errorf("rep %d: %w", len(w.reps), err)
		}
		out.cpu, out.stolen = cpuTime()-cpu, stolenCPU()-stolen
		w.reps = append(w.reps, out)
		if len(w.reps) == 1 {
			w.rss = peakRSSMB()
		}
	}
	w.rt1 = readRuntime()
	w.cpu = w.rt1.cpu - w.rt0.cpu
	return w, nil
}

// bench is one workload run.
type bench struct {
	opt   options
	w     workload
	spec  []byte         // the generated spec every rep submits
	warm  []byte         // the generated warm-up spec
	shape *scenario.Grid // the spec's expanded cells
	work  string         // this run's working directory
	res   *result

	// meter measures the machine's drift during set-up and the measured
	// window; rawCellRate is the window's cell rate before normalization,
	// which the traced pass (run without the meter) compares against.
	meter       *speedMeter
	rawCellRate float64
}

func runWorkload(ctx context.Context, w workload, opt options) (*result, error) {
	b := &bench{opt: opt, w: w, res: newResult(w.name)}
	var err error
	if b.spec, err = generateSpec(filepath.Join(opt.dir, "workloads", w.spec), opt.seed, opt.smoke); err != nil {
		return nil, err
	}
	if b.warm, err = generateSpec(filepath.Join(opt.dir, "workloads", warmupSpec), opt.seed, opt.smoke); err != nil {
		return nil, err
	}
	if b.shape, err = gridShape(b.spec); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	if b.work, err = os.MkdirTemp(opt.work, "ustabench-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)

	b.meter = startSpeedMeter()
	svc, err := b.setup(ctx)
	if err != nil {
		b.meter.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	win, err := timedLoop(opt.seconds, b.minReps(), func() (repOut, error) { return b.rep(ctx, svc) })
	b.meter.stop()
	heapLive := heapLiveMB()
	if svc != nil {
		svc.discard()
	}
	if err != nil {
		return nil, err
	}
	b.endToEnd(&win)
	exp, err := b.expected(ctx)
	if err != nil {
		return nil, fmt.Errorf("expected output: %w", err)
	}
	b.checkReps(&win, exp)
	if opt.trace {
		if err := b.traced(ctx, &win, heapLive); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	b.res.set("error_rate", float64(b.res.failed)/float64(b.res.attempted))
	return b.res, nil
}

// minReps keeps every median over at least three reps, even where one rep
// of service-population (about 9 s on a busy 2-core machine) leaves room
// for only two in the measured time.
func (b *bench) minReps() int {
	if b.opt.smoke {
		return 2
	}
	return 3
}

// setup brings the workload up several times and keeps the last: each
// set-up is the service start (for service workloads) plus one untimed
// warm-up — a whatif submission, or a local whatif sweep — which fills
// the propagator and ladder caches and dials the workers. setup_s is the
// median, each set-up normalized like a rep's wall time (see endToEnd).
func (b *bench) setup(ctx context.Context) (*service, error) {
	n := 5
	if b.opt.smoke {
		n = 1
	}
	var durs []float64
	var svc *service
	for i := 0; i < n; i++ {
		if svc != nil {
			svc.discard()
		}
		t, stolen := time.Now(), stolenCPU()
		var err error
		if svc, err = b.setupOnce(ctx, false); err != nil {
			return nil, err
		}
		end := time.Now()
		slow, _ := b.meter.slowdown(t, end)
		d := end.Sub(t)
		durs = append(durs, d.Seconds()*available(stolenCPU()-stolen, d)/slow)
	}
	b.res.setN("setup_s", median(durs), n)
	return svc, nil
}

func (b *bench) setupOnce(ctx context.Context, counted bool) (*service, error) {
	if b.w.mode == modeLocal {
		out, err := localRep(ctx, b.warm)
		if err == nil && out.failedCells > 0 {
			err = fmt.Errorf("%d warm-up cells failed", out.failedCells)
		}
		return nil, err
	}
	svc, err := startService(b.work, counted)
	if err != nil {
		return nil, err
	}
	if _, err := eventsRep(ctx, svc.c, b.warm); err != nil {
		svc.discard()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return svc, nil
}

func (b *bench) rep(ctx context.Context, svc *service) (repOut, error) {
	var out repOut
	var err error
	switch b.w.mode {
	case modeLocal:
		return localRep(ctx, b.spec)
	case modeEvents:
		out, err = eventsRep(ctx, svc.c, b.spec)
	default:
		out, err = telemetryRep(ctx, svc.c, b.spec, b.shape)
	}
	// A finished submission simulated every cell of the grid.
	out.simSec = simSeconds(b.shape)
	return out, err
}

// endToEnd derives the end-to-end metrics of the measured window. Every
// wall time is divided by the machine's slowdown during its rep (see
// speedMeter) over the share of CPU time the host left the guest; CPU time,
// which excludes stolen time already, by the slowdown alone, after taking
// out the meter's own. Rates and CPU cost are medians over reps, so one rep
// slowed by a noisy neighbour does not move them.
func (b *bench) endToEnd(win *window) {
	n := len(win.reps)
	var lat, last, cellRate, simRate, sampleRate, cpu, scales []float64
	for _, rep := range win.reps {
		slow, busy := b.meter.slowdown(rep.start, rep.start.Add(rep.latency))
		scale := slow / available(rep.stolen, rep.latency)
		s := rep.latency.Seconds() / scale
		scales = append(scales, scale)
		lat = append(lat, s)
		last = append(last, rep.lastSample.Seconds()/scale)
		cellRate = append(cellRate, float64(rep.cells)/s)
		simRate = append(simRate, rep.simSec/s)
		sampleRate = append(sampleRate, float64(rep.samples)/s)
		cpu = append(cpu, ms(rep.cpu-busy)/slow/float64(rep.cells))
	}
	b.rawCellRate = win.cellRate()
	r := b.res
	r.setN("machine_slowdown", median(scales), n)
	r.setN("cells_per_s", median(cellRate), n)
	r.setN("sim_s_per_s", median(simRate), n)
	r.setN("cpu_ms_per_cell", median(cpu), n)
	r.set("peak_rss_mb", win.rss)
	r.setN("submit_to_final_p50_s", median(lat), n)
	if b.w.mode != modeLocal {
		// Samples delivered by the service: folded into its aggregates, or
		// streamed to the client.
		r.setN("samples_per_s", median(sampleRate), n)
		// p90 is reported where at least ten samples lie beyond it.
		if n >= 100 {
			r.setN("submit_to_final_p90_s", quantile(lat, 0.9), n)
		}
	}
	if b.w.mode == modeTelemetry {
		r.setN("submit_to_last_sample_p50_s", median(last), n)
	}
	if b.opt.trace {
		cells, _, _ := win.cells()
		alloc := win.rt1.allocBytes - win.rt0.allocBytes
		r.set("runtime.alloc_bytes_per_cell", alloc/float64(cells))
		r.set("runtime.gc_cpu_frac", (win.rt1.gcCPUSec-win.rt0.gcCPUSec)/win.cpu.Seconds())
	}
}

// expected returns what a correct run must produce: the committed golden
// at seed 1, or one untimed RunScenario of the generated spec at any other
// seed (service workloads only; sweep-local is RunScenario itself).
func (b *bench) expected(ctx context.Context) (*expected, error) {
	perJob := b.w.mode == modeTelemetry
	switch {
	case b.opt.writeGolden:
		exp, err := reference(ctx, b.spec, perJob)
		if err != nil {
			return nil, err
		}
		if err := writeGolden(b.opt.dir, b.w.name, exp); err != nil {
			return nil, err
		}
		return loadGolden(b.opt.dir, b.w.name)
	case b.opt.seed == 1 && !b.opt.smoke:
		return loadGolden(b.opt.dir, b.w.name)
	case b.w.mode == modeLocal:
		return nil, nil
	default:
		return reference(ctx, b.spec, perJob)
	}
}

// checkReps checks every rep's output and counts attempted and failed
// cells and submissions.
func (b *bench) checkReps(win *window, exp *expected) {
	r := b.res
	failed := 0
	for _, rep := range win.reps {
		r.attempted += rep.cells + rep.failedCells
		failed += rep.failedCells
		if b.w.mode != modeLocal {
			r.attempted++ // the submission itself
		}
	}
	r.failed += failed
	r.check("cells", errIf(failed > 0, "%d cells failed", failed))
	var errs []error
	for i, rep := range win.reps[1:] {
		if err := sameComfort(rep.comfort, win.reps[0].comfort); err != nil {
			errs = append(errs, fmt.Errorf("rep %d: %w", i+1, err))
		}
	}
	r.check("determinism", errors.Join(errs...))
	if exp == nil {
		return
	}
	r.check("comfort", exp.checkComfort(win.reps[0].comfort))
	if b.w.mode == modeLocal {
		return
	}
	errs = nil
	for i, rep := range win.reps {
		if rep.samples != exp.SamplesTotal {
			errs = append(errs, fmt.Errorf("rep %d: %d samples, want %d", i, rep.samples, exp.SamplesTotal))
		}
	}
	r.check("samples", errors.Join(errs...))
	if b.w.mode != modeTelemetry {
		return
	}
	var orderErrs, countErrs []error
	for i, rep := range win.reps {
		if rep.orderErr != nil {
			orderErrs = append(orderErrs, rep.orderErr)
		}
		for j, n := range rep.perJob {
			if j >= len(exp.SamplesPerJob) || n != exp.SamplesPerJob[j] {
				countErrs = append(countErrs, fmt.Errorf("rep %d job %d: %d samples, want %v", i, j, n, exp.SamplesPerJob))
				break
			}
		}
	}
	r.check("telemetry.order", errors.Join(orderErrs...))
	r.check("telemetry.samples_per_job", errors.Join(countErrs...))
	r.set("paper_anchor_err_c", b.anchorErr(win.reps[0].peaks))
}

// anchorErr is the mean |peak skin from the telemetry − the paper's Table 1
// peak skin| over the cells of paper benchmarks.
func (b *bench) anchorErr(peaks []float64) float64 {
	sum, n := 0.0, 0
	for i, pt := range b.shape.Points {
		base, usta, ok := experiments.PaperTable1(pt.Workload)
		if !ok {
			continue
		}
		paper := base.MaxSkinC
		if pt.Scheme == "usta" {
			paper = usta.MaxSkinC
		}
		sum += math.Abs(peaks[i] - paper)
		n++
	}
	return sum / float64(n)
}

func errIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// traced runs the traced pass: the local composition of the workload's
// spec for the simulation layers, and for service workloads a second
// service with counted sockets for the wire, net, HTTP, obs and durable
// layers. Its comfort tables must be bit-identical to the untraced pass.
func (b *bench) traced(ctx context.Context, win *window, heapLive float64) error {
	rec := newRecorder()
	r := b.res
	r.set("runtime.heap_live_mb_after", heapLive)
	lt, err := tracedLocal(ctx, b.spec, rec)
	if err != nil {
		return err
	}
	for k, v := range lt.layer {
		r.set(k, v)
	}
	r.check("trace.cells", errIf(lt.failedCells > 0, "%d traced cells failed", lt.failedCells))
	r.check("trace.comfort", sameComfort(lt.comfort, win.reps[0].comfort))
	if b.w.mode == modeLocal {
		r.set("trace_overhead_frac", 1-float64(lt.cells)/lt.wall.Seconds()/b.rawCellRate)
		if !b.opt.smoke {
			// The job spans' self times (job, controller, governor, sink,
			// device) must account for the workers' time within 15%.
			busy := lt.layer["fleet.busy_frac"]
			r.check("trace.self_time_sum", errIf(math.Abs(busy-1) > 0.15, "job self times cover %.3f of workers × wall", busy))
		}
	} else if err := b.tracedService(ctx, rec, win); err != nil {
		return err
	}
	if b.opt.spans != "" {
		return rec.write(b.opt.spans)
	}
	return nil
}

// fleetView is the part of GET /fleet the traced pass reads.
type fleetView struct {
	Hosts []struct {
		ItemsCompleted int `json:"items_completed"`
		Redials        int `json:"redials"`
	} `json:"hosts"`
	Hedges int `json:"hedges"`
}

func (f fleetView) totals() (items, redials int) {
	for _, h := range f.Hosts {
		items += h.ItemsCompleted
		redials += h.Redials
	}
	return items, redials
}

// tracedService runs the service workload's closed loop for half the
// measured time against a service whose worker sockets are counted, then
// times a late event subscriber, a /metrics scrape and a restart's WAL
// recovery.
func (b *bench) tracedService(ctx context.Context, rec *recorder, untraced *window) error {
	r := b.res
	svc, err := b.setupOnce(ctx, true)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			svc.close()
		}
		os.RemoveAll(svc.dir)
	}()
	var f0, f1 fleetView
	if err := svc.c.getJSON(ctx, "/fleet", &f0); err != nil {
		return err
	}
	w0 := svc.wire.snapshot()
	sub := 0
	win, err := timedLoop(b.opt.seconds/2, 1, func() (repOut, error) {
		out, err := b.rep(ctx, svc)
		if err == nil {
			end := out.start.Add(out.latency)
			id := rec.add("submission", -1, sub, out.start, end)
			sub++
			rec.add("http.submit", id, -1, out.start, out.start.Add(out.submit))
			streamEnd := end
			if b.w.mode == modeTelemetry {
				streamEnd = out.start.Add(out.lastSample)
				rec.add("http.status", id, -1, streamEnd, end)
			}
			rec.add("http.stream", id, -1, out.start.Add(out.submit), streamEnd)
		}
		return out, err
	})
	if err != nil {
		return err
	}
	w1 := svc.wire.snapshot()
	if err := svc.c.getJSON(ctx, "/fleet", &f1); err != nil {
		return err
	}
	last := win.reps[len(win.reps)-1]
	t := time.Now()
	if _, _, err := svc.c.awaitFinal(ctx, last.id, nil); err != nil {
		return fmt.Errorf("late subscriber: %w", err)
	}
	finalDur := time.Since(t)
	rec.add("obs.late_subscriber", -1, -1, t, t.Add(finalDur))
	t = time.Now()
	folded, err := scrapeSamples(ctx, svc.c, win.reps)
	if err != nil {
		return err
	}
	metricsDur := time.Since(t)
	rec.add("obs.metrics", -1, -1, t, t.Add(metricsDur))
	wal, err := walBytes(svc.dir)
	if err != nil {
		return err
	}
	svc.close()
	closed = true
	t = time.Now()
	recoverDur, jobs, err := recoverState(svc.dir)
	if err != nil {
		return err
	}
	rec.add("durable.recover", -1, -1, t, t.Add(recoverDur))

	warm, err := gridShape(b.warm)
	if err != nil {
		return err
	}
	n := float64(len(win.reps))
	cells, _, samples := win.cells()
	var submits, firsts []float64
	var comfortErrs []error
	var streamBytes int64
	for i, rep := range win.reps {
		submits = append(submits, ms(rep.submit))
		firsts = append(firsts, ms(rep.firstFrame))
		streamBytes += rep.streamBytes
		if err := sameComfort(rep.comfort, untraced.reps[0].comfort); err != nil {
			comfortErrs = append(comfortErrs, fmt.Errorf("traced rep %d: %w", i, err))
		}
	}
	r.check("trace.service_comfort", errors.Join(comfortErrs...))
	done := 0
	for _, j := range jobs {
		if j.Status == "done" {
			done++
		}
	}
	r.check("durable.recover", errIf(done != len(win.reps)+1 || len(jobs) != done,
		"recovered %d jobs (%d done), want %d done", len(jobs), done, len(win.reps)+1))

	items0, redials0 := f0.totals()
	items1, redials1 := f1.totals()
	items, hedges := float64(items1-items0), float64(f1.Hedges-f0.Hedges)
	r.set("wire.out_bytes_per_sample", float64(w1.out-w0.out)/float64(samples))
	r.set("wire.write_busy_s", float64(w1.writeNs-w0.writeNs)/1e9/n)
	r.set("wire.in_bytes_per_submission", float64(w1.in-w0.in)/n)
	r.set("wire.conns_per_submission", float64(w1.conns-w0.conns)/n)
	r.set("net.items_completed", items/n)
	r.set("net.hedges", hedges/n)
	r.set("net.redials", float64(redials1-redials0)/n)
	r.set("net.useful_item_ratio", items/(items+hedges))
	r.set("http.submit_ms_p50", median(submits))
	r.set("http.first_frame_ms_p50", median(firsts))
	if b.w.mode == modeTelemetry {
		r.set("http.telemetry_bytes_per_sample", float64(streamBytes)/float64(samples))
	} else {
		r.set("http.sse_bytes_per_submission", float64(streamBytes)/n)
	}
	r.set("obs.samples_folded", float64(folded)/n)
	r.set("obs.final_frame_ms", ms(finalDur))
	r.set("obs.metrics_render_ms", ms(metricsDur))
	r.set("durable.wal_bytes_per_cell", float64(wal)/float64(cells+len(warm.Jobs)))
	r.set("durable.recover_ms", ms(recoverDur))
	r.set("trace_overhead_frac", 1-win.cellRate()/b.rawCellRate)
	return nil
}

// scrapeSamples reads /metrics and sums usta_job_samples_total over the
// given reps' jobs.
func scrapeSamples(ctx context.Context, c *client, reps []repOut) (int64, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, rep := range reps {
		want[`usta_job_samples_total{job="`+rep.id+`"}`] = true
	}
	var total int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[key] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		total += int64(v)
	}
	return total, sc.Err()
}
