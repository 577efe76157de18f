package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scheduler kinds. On a unidirectional ring all three yield bit-identical
// executions (Section 2: per-link FIFO pins every local computation); on
// trees and general graphs they genuinely interleave differently.
const (
	SchedFIFO     = "fifo"
	SchedLIFO     = "lifo"
	SchedRandom   = "random"
	SchedLockstep = "lockstep" // synchronous topologies: rounds, no scheduler
	SchedPairwise = "pairwise" // population topologies: random-pair interactions, no messages
)

// newScheduler builds the scheduler for one execution. FIFO is the
// simulator default (nil); the random scheduler is seeded per execution so
// trial batches stay deterministic and shard-safe, and recycled on the
// worker's arena so the reseeding does not allocate per trial.
func newScheduler(kind string, seed int64, arena *sim.Arena) (sim.Scheduler, error) {
	switch kind {
	case SchedFIFO, SchedLockstep, "":
		return nil, nil
	case SchedLIFO:
		return sim.LIFOScheduler{}, nil
	case SchedRandom:
		return arena.RandomScheduler(seed), nil
	default:
		return nil, fmt.Errorf("scenario: unknown scheduler %q", kind)
	}
}

// Opts overrides a scenario's defaults for one run. Zero fields keep the
// scenario's registered values.
type Opts struct {
	// N overrides the network size.
	N int
	// Trials overrides the trial count.
	Trials int
	// Workers is the engine worker count; 0 picks runtime.NumCPU().
	// Results are identical for any value.
	Workers int
	// K overrides the coalition size where the scenario's attack takes
	// one (0 keeps the scenario default; the attack's own default rules
	// apply when that is also 0).
	K int
	// Target overrides the leader the coalition tries to force; on an
	// attack scenario a nonzero target must lie in [1, n].
	Target int64
	// Progress, if non-nil, receives deterministic snapshots of the
	// accumulating distribution as the batch runs: the engine delivers
	// chunk-ordered prefixes, so the snapshot sequence depends only on
	// (seed, trials, chunking), never on worker count or scheduling. The
	// final snapshot always covers the whole batch. The callback runs
	// under the engine's merge lock and must be cheap.
	Progress func(Snapshot)
	// Stop, if non-nil, enables adaptive early stopping: it sees the same
	// deterministic chunk-ordered prefixes Progress does and returns true
	// to end the batch after that prefix (see engine.Options.Stop). The
	// stopping point depends only on (seed, trials, chunking) — never on
	// worker count — so stopped runs stay reproducible. Unlike the other
	// overrides, Stop changes the result (fewer trials), so results of
	// stopped runs must not be cached under the plain JobKey; callers that
	// cache them (the equilibrium certifier) fold the stopping rule's
	// parameters into their own key.
	Stop func(prefix *ring.Distribution, trials int) bool
	// Arenas, if non-nil, draws engine worker arenas from a shared pool
	// so simulation workspaces persist across runs — the service
	// daemon's resident mode (see engine.ArenaPool). Results are
	// identical with or without it.
	Arenas *engine.ArenaPool
}

// params is a scenario's fully resolved run configuration.
type params struct {
	N       int
	Trials  int
	Workers int
	K       int
	Target  int64
	// observe, stop and arenas are carried to the engine by every run
	// builder.
	observe func(prefix *ring.Distribution, trials int)
	stop    func(prefix *ring.Distribution, trials int) bool
	arenas  *engine.ArenaPool
}

// chunksFunc builds the scenario's canonical chunked engine job for one
// (seed, params) configuration. The job must derive every per-trial result
// from the trial index alone, so any sub-range run through engine.RunRange
// contributes exactly its trials' shard to the batch — the property remote
// chunk claiming (Scenario.RunShard) relies on.
type chunksFunc func(seed int64, p params) (engine.ChunkJob, error)

// Scenario is one named, runnable configuration.
type Scenario struct {
	// Name identifies the scenario: <topology>/<protocol>/<scheduler>
	// or <topology>/<protocol>/attack=<attack>.
	Name string
	// Topology is the communication graph family: "ring", "wakeup",
	// "complete", "tree-path", "tree-star", "sync-complete", "sync-ring".
	Topology string
	// Protocol is the protocol slug (e.g. "a-lead", "phase-lead").
	Protocol string
	// Scheduler is the message schedule kind (SchedFIFO et al.).
	Scheduler string
	// Attack is the adversarial deviation slug; empty for honest runs.
	Attack string
	// N is the default network size.
	N int
	// MinN is the smallest size the configuration supports (attack
	// feasibility or protocol constraints).
	MinN int
	// Trials is the default trial count.
	Trials int
	// K is the default coalition size (0 = the attack's own default,
	// −1 = n−1).
	K int
	// Target is the default leader the coalition tries to force.
	Target int64
	// Uniform marks scenarios whose leader distribution is uniform over
	// [1..N] — the family the differential matrix tests pairwise.
	Uniform bool
	// Note is a one-line description for catalogs.
	Note string

	chunks chunksFunc

	// proto is the underlying ring protocol for ring-simulator topologies
	// ("ring", "wakeup"); single executions and deviation sweeps run
	// against it. Nil for topologies with their own runtimes (complete,
	// trees, synchronous models).
	proto ring.Protocol
	// family and mode name the registered DeviationFamily (and its
	// variant) behind an attack scenario's run; empty for honest
	// scenarios and for non-ring attacks, which sweep through their own
	// batch instead.
	family, mode string
}

// params resolves the run configuration from the scenario defaults and the
// caller's overrides.
func (s Scenario) params(o Opts) params {
	p := params{N: s.N, Trials: s.Trials, Workers: o.Workers, K: s.K, Target: s.Target,
		stop: o.Stop, arenas: o.Arenas}
	if o.N > 0 {
		p.N = o.N
	}
	if o.Trials > 0 {
		p.Trials = o.Trials
	}
	if o.K != 0 {
		p.K = o.K
	}
	if o.Target != 0 {
		p.Target = o.Target
	}
	if o.Progress != nil {
		progress, total := o.Progress, p.Trials
		p.observe = func(prefix *ring.Distribution, trials int) {
			progress(snapshot(prefix, trials, total))
		}
	}
	return p
}

// runParams resolves the caller's overrides for a run, rejecting a
// scenario that is not runnable (the zero Scenario has no chunked job),
// sizes below MinN, and an attack target that is not a leader of the
// resolved ring. Every run path resolves through it.
func (s Scenario) runParams(o Opts) (params, error) {
	if s.chunks == nil {
		return params{}, fmt.Errorf("scenario: %q is not runnable", s.Name)
	}
	p := s.params(o)
	switch {
	case p.N < s.MinN:
		return p, fmt.Errorf("scenario: %s needs n ≥ %d, got %d", s.Name, s.MinN, p.N)
	case p.Trials < 1:
		return p, fmt.Errorf("scenario: %s needs ≥ 1 trial, got %d", s.Name, p.Trials)
	case s.Attack != "" && p.Target != 0 && (p.Target < 1 || p.Target > int64(p.N)):
		return p, fmt.Errorf("scenario: %s: target %d out of range [1,%d]", s.Name, p.Target, p.N)
	}
	return p, nil
}

// Check reports the error RunOpts would reject the overrides with before
// running anything, or nil. A daemon checks a request with it at submit
// time.
func (s Scenario) Check(o Opts) error {
	_, err := s.runParams(o)
	return err
}

// Outcome is the uniform result of one scenario run.
type Outcome struct {
	Scenario  string `json:"scenario"`
	Topology  string `json:"topology"`
	Protocol  string `json:"protocol"`
	Scheduler string `json:"scheduler"`
	Attack    string `json:"attack,omitempty"`
	N         int    `json:"n"`
	Trials    int    `json:"trials"`
	// Counts[j] is the number of trials electing leader j (index 0
	// unused).
	Counts []int `json:"counts"`
	// Failures is the number of FAIL outcomes.
	Failures int `json:"failures"`
	// Messages is the total number of delivered messages over all trials.
	Messages int `json:"messages"`
	// FailRate is Failures/Trials.
	FailRate float64 `json:"fail_rate"`
	// MaxWinLeader and MaxWinRate describe the most-elected leader.
	MaxWinLeader int64   `json:"max_win_leader"`
	MaxWinRate   float64 `json:"max_win_rate"`
	// Epsilon is the Definition 2.3 bias point estimate (max-win − 1/n).
	Epsilon float64 `json:"epsilon"`
	// Target and TargetRate report the attack's goal and its success
	// rate; Target is 0 for honest scenarios.
	Target     int64   `json:"target,omitempty"`
	TargetRate float64 `json:"target_rate,omitempty"`

	// Dist is the underlying distribution, for callers that need the
	// raw material (the harness tables, the differential tests).
	Dist *ring.Distribution `json:"-"`
}

// Run executes the scenario's trial batch at its registered defaults.
func (s Scenario) Run(ctx context.Context, seed int64) (*Outcome, error) {
	return s.RunOpts(ctx, seed, Opts{})
}

// RunOpts is Run with overrides. The batch routes through the parallel
// trial engine; for a fixed seed the outcome is identical at any
// opts.Workers.
func (s Scenario) RunOpts(ctx context.Context, seed int64, o Opts) (*Outcome, error) {
	p, err := s.runParams(o)
	if err != nil {
		return nil, err
	}
	dist, err := s.batch(ctx, seed, p)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	return s.outcome(dist, p), nil
}

// SingleRun executes one election of a ring-topology scenario under the
// given scheduler (nil = FIFO). ok is false for scenarios that are not
// single-execution ring configurations (trees, complete graphs, synchronous
// models).
func (s Scenario) SingleRun(seed int64, sched sim.Scheduler, o Opts) (res sim.Result, ok bool, err error) {
	if s.proto == nil {
		return sim.Result{}, false, nil
	}
	p, err := s.runParams(o)
	if err != nil {
		return sim.Result{}, true, err
	}
	res, err = s.single(seed, sched, p, nil)
	return res, true, err
}

// single runs one execution of a ring scenario under seed, on an optional
// recycled arena: the honest protocol, or the scenario's own deviation
// family planned under seed, exactly as trial t of a batch runs under trial
// t's seed.
func (s Scenario) single(seed int64, sched sim.Scheduler, p params, arena *sim.Arena) (sim.Result, error) {
	spec := ring.Spec{N: p.N, Protocol: s.proto, Seed: seed, Scheduler: sched}
	if s.family != "" {
		proto, atk, err := planFamily(s.proto, DeviationCandidate{Family: s.family, K: p.K, Mode: s.mode}, p.N)
		if err != nil {
			return sim.Result{}, err
		}
		if spec.Deviation, err = atk.Plan(p.N, p.Target, seed); err != nil {
			return sim.Result{}, &ring.PlanError{Attack: atk.Name(), N: p.N, Err: err}
		}
		spec.Protocol = proto
	}
	return ring.RunArena(spec, arena)
}

// RunShard runs logical trials [start, end) of the batch RunOpts(seed, o)
// would run and returns their raw shard distribution. Per-trial seeds
// derive from the logical index, so merging the shards of any partition of
// [0, trials) — in any order, on any mix of machines — reproduces the full
// batch's distribution bit-for-bit (Distribution merges are counter sums).
// This is the unit of work a daemon's claimants run, locally or leased.
// Stop is ignored: shards are plain sub-batches. Progress is honored only
// by a shard that starts at trial 0, whose engine prefixes are prefixes of
// the whole batch, so RunShard(…, 0, trials) delivers exactly RunOpts's
// snapshot sequence.
func (s Scenario) RunShard(ctx context.Context, seed int64, o Opts, start, end int) (*ring.Distribution, error) {
	p, err := s.runParams(o)
	if err != nil {
		return nil, err
	}
	if start < 0 || end < start || end > p.Trials {
		return nil, fmt.Errorf("scenario: %s shard [%d, %d) outside batch of %d trials", s.Name, start, end, p.Trials)
	}
	job, err := s.chunks(seed, p)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	eo := engine.Options[*ring.Distribution]{Workers: p.Workers, Arenas: p.arenas}
	if start == 0 {
		eo.Observe = p.observe
	}
	dist, err := engine.RunRange(ctx, start, end, job, ring.DistSink(p.N), eo)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	return dist, nil
}

// OutcomeFromDist summarizes an externally merged distribution exactly as
// RunOpts would summarize its own: a coordinator that folds worker shards
// back together builds the final Outcome through this, so the marshaled
// result bytes of a distributed run equal a single-node run's.
func (s Scenario) OutcomeFromDist(dist *ring.Distribution, o Opts) *Outcome {
	return s.outcome(dist, s.params(o))
}

// Resolve returns the resolved (n, trials) the overrides pin, using exactly
// the defaulting RunOpts applies. Fleet coordinators use it to decompose a
// job into trial chunks without running anything.
func (s Scenario) Resolve(o Opts) (n, trials int) {
	p := s.params(o)
	return p.N, p.Trials
}

// outcome summarizes a distribution.
func (s Scenario) outcome(dist *ring.Distribution, p params) *Outcome {
	rep := core.Bias(dist)
	leader, rate := dist.MaxWin()
	out := &Outcome{
		Scenario:     s.Name,
		Topology:     s.Topology,
		Protocol:     s.Protocol,
		Scheduler:    s.Scheduler,
		Attack:       s.Attack,
		N:            dist.N,
		Trials:       dist.Trials,
		Counts:       dist.Counts,
		Failures:     dist.Failures(),
		Messages:     dist.Messages,
		FailRate:     dist.FailureRate(),
		MaxWinLeader: leader,
		MaxWinRate:   rate,
		Epsilon:      rep.Epsilon,
		Dist:         dist,
	}
	if s.Attack != "" && p.Target != 0 {
		out.Target = p.Target
		out.TargetRate = dist.WinRate(p.Target)
	}
	return out
}

// batch runs the scenario's chunked job for one resolved configuration on
// the engine. Every batch takes this path, so the batch a single node runs
// and the one a coordinator decomposes into remote shards (RunShard) are
// the same job by construction.
func (s Scenario) batch(ctx context.Context, seed int64, p params) (*ring.Distribution, error) {
	job, err := s.chunks(seed, p)
	if err != nil {
		return nil, err
	}
	return engineBatch(ctx, p, job)
}

// engineBatch runs a chunked job on the parallel engine, lowering the
// resolved params onto engine options.
func engineBatch(ctx context.Context, p params, job engine.ChunkJob) (*ring.Distribution, error) {
	return engine.RunBatch(ctx, p.Trials, job, ring.DistSink(p.N),
		engine.Options[*ring.Distribution]{Workers: p.Workers, Stop: p.stop, Observe: p.observe, Arenas: p.arenas})
}

// Snapshot is one deterministic progress point of a running trial batch:
// how far the batch has advanced and what the accumulating distribution
// currently estimates. Snapshots are computed on chunk-ordered prefixes
// (see engine.Options.Observe), so for a fixed seed the whole sequence is
// reproducible at any worker count.
type Snapshot struct {
	// Done and Total count trials: completed so far vs the batch size.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Failures and Messages mirror the distribution's running counters.
	Failures int `json:"failures"`
	Messages int `json:"messages"`
	// MaxWinLeader is the currently most-elected leader; MaxWin is its
	// running rate estimate with a 95% Wilson interval — the same
	// machinery the adaptive stopping rules use.
	MaxWinLeader int64              `json:"max_win_leader"`
	MaxWin       stats.RateSnapshot `json:"max_win"`
	// Epsilon is the running Definition 2.3 bias point estimate
	// (max-win rate − 1/n).
	Epsilon float64 `json:"epsilon"`
}

// NewSnapshot summarizes a prefix of an accumulating distribution covering
// done of total trials — the exported form of the progress points Opts.
// Progress delivers, for coordinators that merge remote shards themselves
// and still want to stream the same snapshot shape.
func NewSnapshot(d *ring.Distribution, done, total int) Snapshot {
	return snapshot(d, done, total)
}

// snapshot summarizes a prefix of the accumulating distribution.
func snapshot(d *ring.Distribution, done, total int) Snapshot {
	leader, rate := d.MaxWin()
	return Snapshot{
		Done:         done,
		Total:        total,
		Failures:     d.Failures(),
		Messages:     d.Messages,
		MaxWinLeader: leader,
		MaxWin:       stats.NewRateSnapshot(d.Counts[leader], d.Trials, 1.96),
		Epsilon:      rate - 1/float64(d.N),
	}
}
