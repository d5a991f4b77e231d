// Package shard executes fleet batches across worker subprocesses: the
// coordinator partitions a job slice into contiguous shards, ships each as
// a wire.ShardRequest to one worker over stdin, and merges the result and
// telemetry frames streaming back over stdout into submission order. The
// Job/JobResult contract was designed to survive serialization — seeds are
// resolved from grid position before dispatch, results carry their global
// index — so a sharded run is byte-identical to a local one at any process
// count. Swapping the pipe transport for a socket is all that separates
// this from multi-host execution.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/wire"
	"repro/internal/sink"
)

// Runner is the multi-process fleet.Runner. The zero value is not useful;
// construct with New.
type Runner struct {
	// Procs is the number of worker processes (normalized like every other
	// parallelism knob: <= 0 means GOMAXPROCS). Each process receives one
	// contiguous shard of the batch.
	Procs int
	// Command launches one worker: argv[0] plus arguments. Nil re-executes
	// the current binary with the worker environment variable set, which
	// requires main (or TestMain) to call Main early — cmd/ustasim and
	// cmd/ustaworker both do. Point it at a ustaworker binary to decouple
	// coordinator and worker builds.
	Command []string
}

// New creates a shard runner with n worker processes (<= 0: GOMAXPROCS).
func New(n int) *Runner { return &Runner{Procs: n} }

// errNoSpec marks jobs that cannot cross a process boundary.
var errNoSpec = errors.New("shard: job has no serializable spec (Job.Spec); only scenario-expanded or spec-carrying jobs can run on a shard runner")

// Run implements fleet.Runner: it partitions jobs into contiguous shards,
// one per worker process, and merges the streams back. Seeds are resolved
// coordinator-side through fleet.EffectiveSeed, so output is byte-identical
// to LocalRunner at any process count. Failures degrade per job: a spec-less
// job, a crashed worker or a cancelled context mark the affected results
// with errors while every other shard completes.
func (r *Runner) Run(ctx context.Context, cfg fleet.Config, jobs []fleet.Job) []fleet.JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]fleet.JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	report := fleet.ResultReporter(cfg, len(jobs))
	procs := fleet.NormalizeWorkers(r.Procs)
	if procs > len(jobs) {
		procs = len(jobs)
	}
	// Per-process pool width: an explicit Workers is taken as given; unset
	// splits the machine's cores across the shard processes so the default
	// does not oversubscribe procs × GOMAXPROCS.
	if cfg.Workers <= 0 {
		cfg.Workers = (fleet.NormalizeWorkers(0) + procs - 1) / procs
	}
	var wg sync.WaitGroup
	for s := 0; s < procs; s++ {
		start := s * len(jobs) / procs
		end := (s + 1) * len(jobs) / procs
		wg.Add(1)
		go func(shardID, start, end int) {
			defer wg.Done()
			r.runShard(ctx, cfg, shardID, start, jobs[start:end], results[start:end], report)
		}(s, start, end)
	}
	wg.Wait()
	return results
}

// errResult builds the failed JobResult for job i, matching the local
// runner's name synthesis.
func errResult(i int, job *fleet.Job, err error) fleet.JobResult {
	res := fleet.JobResult{Index: i, Name: job.Name, User: job.User, Err: err}
	if res.Name == "" && job.Workload != nil {
		res.Name = job.Workload.Name()
	}
	return res
}

// runShard dispatches jobs[0:n] (global indices start..start+n) to one
// worker process and fills results as frames arrive.
func (r *Runner) runShard(ctx context.Context, cfg fleet.Config, shardID, start int, jobs []fleet.Job, results []fleet.JobResult, report func(fleet.JobResult)) {
	// Build the request: spec-less jobs fail here, spec'd jobs get their
	// seed resolved exactly like the local runner would have.
	req := &wire.ShardRequest{Workers: cfg.Workers, Predictor: cfg.Predictor, WantSamples: cfg.Sink != nil, Event: int(cfg.Event)}
	received := make([]bool, len(jobs))
	for i := range jobs {
		if jobs[i].Spec == nil {
			results[i] = errResult(start+i, &jobs[i], errNoSpec)
			received[i] = true
			report(results[i])
			continue
		}
		spec := *jobs[i].Spec
		spec.Index = start + i
		spec.Seed = fleet.EffectiveSeed(cfg.Seed, start+i, &jobs[i])
		req.Jobs = append(req.Jobs, spec)
	}
	if len(req.Jobs) == 0 {
		return
	}

	shardErr := r.streamShard(ctx, shardID, req, func(f *wire.Frame) error {
		switch f.Type {
		case wire.TypeSample:
			if cfg.Sink != nil {
				id := sink.JobID(f.Sample.Job)
				wire.EachSample(f.Sample.Samples, func(s device.Sample) { cfg.Sink.Accept(id, s) })
			}
		case wire.TypeResult:
			i := f.Result.Index - start
			if i < 0 || i >= len(jobs) {
				return fmt.Errorf("shard %d: result for job %d outside shard [%d,%d)", shardID, f.Result.Index, start, start+len(jobs))
			}
			results[i] = f.Result.Decode()
			received[i] = true
			report(results[i])
		}
		return nil
	})

	// Anything the worker never reported fails with the shard's error; a
	// cancelled context takes precedence so callers see the same
	// context-error marking the local runner produces.
	if shardErr == nil {
		shardErr = fmt.Errorf("shard %d: worker finished without reporting every job", shardID)
	}
	if err := ctx.Err(); err != nil {
		shardErr = err
	}
	for i := range jobs {
		if !received[i] {
			results[i] = errResult(start+i, &jobs[i], shardErr)
			report(results[i])
		}
	}
}

// streamShard spawns one worker, writes the request and dispatches every
// incoming frame to handle until the worker reports done. It returns nil
// after a clean done frame, or the stream/process failure.
func (r *Runner) streamShard(ctx context.Context, shardID int, req *wire.ShardRequest, handle func(*wire.Frame) error) (err error) {
	argv := r.Command
	if len(argv) == 0 {
		exe, exeErr := os.Executable()
		if exeErr != nil {
			return fmt.Errorf("shard %d: resolve worker binary: %w", shardID, exeErr)
		}
		argv = []string{exe}
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("shard %d: %w", shardID, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("shard %d: %w", shardID, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard %d: start worker: %w", shardID, err)
	}
	defer func() {
		// On a stream error the worker may still be alive and blocked
		// writing into the full stdout pipe; kill it or Wait would block
		// forever on a process that never exits.
		if err != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
		// Reap the process; surface its failure (with stderr) only when the
		// stream didn't already explain the problem.
		waitErr := cmd.Wait()
		if err != nil && waitErr != nil {
			err = fmt.Errorf("%w (worker: %v%s)", err, waitErr, stderrSuffix(&stderr))
		} else if err == nil && waitErr != nil {
			err = fmt.Errorf("shard %d: worker failed: %w%s", shardID, waitErr, stderrSuffix(&stderr))
		}
	}()

	writeErr := wire.WriteFrame(stdin, &wire.Frame{V: wire.Version, Type: wire.TypeShard, Shard: req})
	stdin.Close()
	if writeErr != nil {
		return fmt.Errorf("shard %d: send request: %w", shardID, writeErr)
	}
	for {
		f, ferr := wire.ReadFrame(stdout)
		if ferr != nil {
			if errors.Is(ferr, io.EOF) || errors.Is(ferr, io.ErrUnexpectedEOF) {
				return fmt.Errorf("shard %d: worker stream ended before done frame", shardID)
			}
			return fmt.Errorf("shard %d: %w", shardID, ferr)
		}
		switch f.Type {
		case wire.TypeDone:
			// Drain any trailing output so Wait doesn't block on the pipe.
			io.Copy(io.Discard, stdout)
			return nil
		case wire.TypeError:
			return fmt.Errorf("shard %d: worker: %s", shardID, f.Err)
		default:
			if herr := handle(f); herr != nil {
				return herr
			}
		}
	}
}

// stderrSuffix formats captured worker stderr for error messages.
func stderrSuffix(b *bytes.Buffer) string {
	s := bytes.TrimSpace(b.Bytes())
	if len(s) == 0 {
		return ""
	}
	const max = 512
	if len(s) > max {
		s = s[len(s)-max:]
	}
	return fmt.Sprintf("; stderr: %s", s)
}
