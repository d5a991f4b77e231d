package fleet

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/governor"
	"repro/internal/users"
	"repro/internal/workload"
)

// WorkloadRef names a workload reconstructible by workload.ByName — the
// serializable form of the workload axis. Only the thirteen paper
// benchmarks have names; synthetic workloads cannot cross a process
// boundary and keep their jobs on the local runner.
type WorkloadRef struct {
	// Name is one of workload.BenchmarkNames.
	Name string `json:"name"`
	// Seed is the construction seed (phase jitter), passed to
	// workload.ByName exactly as the originating side did.
	Seed uint64 `json:"seed,omitempty"`
}

// JobSpec is the serializable description of a Job: everything a worker
// process needs to rebuild and run the job — workload by name, device
// configuration, governor and controller by name — without the closures
// the in-process Job carries. The scenario expander attaches one
// to every job it emits; hand-built jobs opt in to sharding by attaching
// their own. Specs travel inside wire.ShardRequest frames
// (internal/fleet/wire).
type JobSpec struct {
	// Index is the job's position in the whole submitted batch. The shard
	// coordinator stamps it before dispatch; workers tag results and
	// telemetry samples with it so the coordinator can merge streams from
	// every shard back into submission order.
	Index int `json:"index"`
	// Name labels the job (empty: synthesized from the workload).
	Name string `json:"name,omitempty"`
	// User is the participant, by value (users.User is plain data).
	User users.User `json:"user,omitempty"`
	// Workload names the demand trace.
	Workload WorkloadRef `json:"workload"`
	// Device is the handset configuration (nil: device.DefaultConfig). A
	// shard request carries each distinct configuration once, in its
	// device table, so the field is not encoded with the spec.
	Device *device.Config `json:"-"`
	// Governor is a cpufreq governor sysfs name ("" keeps the stock
	// default).
	Governor string `json:"governor,omitempty"`
	// Controller selects the thermal controller: "" or "none" for a stock
	// phone, "usta" for the paper's controller built against the shard
	// request's predictor.
	Controller string `json:"controller,omitempty"`
	// LimitC is the skin limit a "usta" controller enforces.
	LimitC float64 `json:"limit_c,omitempty"`
	// DurSec truncates the run (<= 0: full workload duration).
	DurSec float64 `json:"dur_sec,omitempty"`
	// Seed is the pinned device seed. The coordinator resolves it through
	// EffectiveSeed before dispatch, so it is always non-zero on the wire —
	// the worker never re-derives seeds, which is what keeps a distributed
	// batch byte-identical to a local one.
	Seed int64 `json:"seed,omitempty"`
}

// Validate reports whether the spec can be materialized into a runnable
// job. It checks the declarative fields only; predictor availability for
// "usta" controllers is the worker's concern.
func (s *JobSpec) Validate() error {
	if s.Workload.Name == "" {
		return fmt.Errorf("fleet: job spec %d has no workload", s.Index)
	}
	// Membership check by name only: workload.ByName would construct all
	// thirteen benchmark programs per call, and Validate runs once per job
	// on the worker's startup path.
	known := false
	for _, n := range workload.BenchmarkNames {
		if n == s.Workload.Name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("fleet: job spec %d: unknown workload %q", s.Index, s.Workload.Name)
	}
	switch s.Controller {
	case "", "none", "usta":
	default:
		return fmt.Errorf("fleet: job spec %d: unknown controller %q", s.Index, s.Controller)
	}
	if s.Controller == "usta" && s.LimitC <= 0 {
		return fmt.Errorf("fleet: job spec %d: usta controller needs a positive limit, got %g", s.Index, s.LimitC)
	}
	if s.Seed == 0 {
		return fmt.Errorf("fleet: job spec %d has no pinned seed (the coordinator resolves seeds before dispatch)", s.Index)
	}
	return nil
}

// GovernorFactory resolves a cpufreq governor name against an OPP
// frequency table into a per-job factory (governors are stateful; each
// job needs its own instance). The one job builder, scenario.Materialize,
// resolves every named governor through it.
func GovernorFactory(name string, freqs []float64) (func() governor.Governor, error) {
	if _, err := governor.ByName(name, freqs); err != nil {
		return nil, err
	}
	return func() governor.Governor {
		g, err := governor.ByName(name, freqs)
		if err != nil { // validated above; unreachable
			panic(err)
		}
		return g
	}, nil
}
