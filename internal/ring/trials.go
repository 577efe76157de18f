package ring

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Distribution aggregates outcomes over many independent trials of one
// configuration. It is the raw material for every bias estimate in the
// experiment suite.
type Distribution struct {
	// N is the ring size.
	N int
	// Trials is the number of executions aggregated.
	Trials int
	// Counts[j] is the number of trials electing leader j (index 0 unused).
	Counts []int
	// FailCounts[r] is the number of trials failing with reason r.
	FailCounts [5]int
	// Messages is the total number of delivered messages over all trials.
	Messages int
}

// NewDistribution returns an empty distribution for ring size n.
func NewDistribution(n int) *Distribution {
	return &Distribution{N: n, Counts: make([]int, n+1)}
}

// Add records one execution result.
func (d *Distribution) Add(res sim.Result) {
	d.Trials++
	d.Messages += res.Delivered
	if res.Failed {
		d.FailCounts[res.Reason]++
		return
	}
	if res.Output >= 1 && res.Output <= int64(d.N) {
		d.Counts[res.Output]++
	} else {
		// A valid-but-out-of-range output counts as a mismatchy failure;
		// honest protocols never produce it.
		d.FailCounts[sim.FailMismatch]++
	}
}

// Merge folds another distribution over the same ring size into d. Merging
// is commutative and associative (every field is a counter sum), which is
// what lets the trial engine accumulate into per-chunk shards and still
// produce results identical to a sequential run. It refuses, leaving d
// unchanged, a merge whose message count would overflow: Validate bounds
// every outcome count by the trials but cannot bound a shard's messages.
func (d *Distribution) Merge(o *Distribution) error {
	if o == nil {
		return nil
	}
	if d.N != o.N {
		return fmt.Errorf("ring: merging distributions of different ring sizes %d and %d", d.N, o.N)
	}
	if o.Messages > 0 && d.Messages > math.MaxInt-o.Messages {
		return fmt.Errorf("ring: merging %d messages into %d overflows", o.Messages, d.Messages)
	}
	d.Trials += o.Trials
	d.Messages += o.Messages
	for j := range d.Counts {
		d.Counts[j] += o.Counts[j]
	}
	for r := range d.FailCounts {
		d.FailCounts[r] += o.FailCounts[r]
	}
	return nil
}

// Validate reports whether d is a distribution of exactly trials trials on a
// ring of size n, as Add and Merge build one: n+1 leader counts with none
// for leader 0, no negative counter, and leader and failure counts that sum
// to Trials. A shard that arrives from outside the process (a fleet
// worker's chunk result) must pass it before it is merged.
func (d *Distribution) Validate(n, trials int) error {
	switch {
	case d == nil:
		return errors.New("ring: no distribution")
	case d.N != n:
		return fmt.Errorf("ring: distribution for n=%d, want n=%d", d.N, n)
	case len(d.Counts) != n+1:
		return fmt.Errorf("ring: %d leader counts for n=%d, want %d", len(d.Counts), n, n+1)
	case d.Counts[0] != 0:
		return fmt.Errorf("ring: %d wins for leader 0", d.Counts[0])
	case d.Trials != trials:
		return fmt.Errorf("ring: distribution of %d trials, want %d", d.Trials, trials)
	case d.Messages < 0:
		return fmt.Errorf("ring: negative message count %d", d.Messages)
	}
	// Every count must fit in what is left of the trials, so the sum can
	// never overflow into a false match.
	left := trials
	for _, counts := range [][]int{d.Counts, d.FailCounts[:]} {
		for _, c := range counts {
			if c < 0 || c > left {
				return fmt.Errorf("ring: outcome count %d out of range for %d trials", c, trials)
			}
			left -= c
		}
	}
	if left != 0 {
		return fmt.Errorf("ring: outcome counts sum to %d, want %d trials", trials-left, trials)
	}
	return nil
}

// Failures returns the total number of failed trials.
func (d *Distribution) Failures() int {
	total := 0
	for _, c := range d.FailCounts {
		total += c
	}
	return total
}

// WinRate returns the fraction of trials electing the given leader.
func (d *Distribution) WinRate(leader int64) float64 {
	if d.Trials == 0 {
		return 0
	}
	return float64(d.Counts[leader]) / float64(d.Trials)
}

// FailureRate returns the fraction of trials with outcome FAIL.
func (d *Distribution) FailureRate() float64 {
	if d.Trials == 0 {
		return 0
	}
	return float64(d.Failures()) / float64(d.Trials)
}

// MaxWin returns the most frequently elected leader and its win rate.
func (d *Distribution) MaxWin() (leader int64, rate float64) {
	best, bestCount := int64(0), -1
	for j := 1; j <= d.N; j++ {
		if d.Counts[j] > bestCount {
			best, bestCount = int64(j), d.Counts[j]
		}
	}
	return best, d.WinRate(best)
}

// String summarizes the distribution.
func (d *Distribution) String() string {
	leader, rate := d.MaxWin()
	return fmt.Sprintf("n=%d trials=%d fail=%.3f maxwin=%d@%.3f",
		d.N, d.Trials, d.FailureRate(), leader, rate)
}

// TrialOptions tunes a batch of trials run on the parallel engine. The zero
// value uses every CPU, the engine's fixed chunk size, and no early
// stopping; any setting yields the same distribution for a fixed seed.
type TrialOptions struct {
	// Workers is the worker count; 0 picks runtime.NumCPU().
	Workers int
	// Stop, if non-nil, halts the batch early once the rule returns true
	// on a deterministic prefix of the distribution (see engine.Options).
	Stop func(prefix *Distribution) bool
	// Progress, if non-nil, receives each deterministic chunk-ordered
	// prefix of the accumulating distribution as the batch runs (see
	// engine.Options.Observe). The callback must not retain prefix. The
	// field name matches scenario.Opts.Progress — every options struct on
	// the batch path spells this hook the same way.
	Progress func(prefix *Distribution, trials int)
	// Arenas, if non-nil, draws worker arenas from a shared pool so
	// simulation workspaces persist across batches (see engine.ArenaPool).
	Arenas *engine.ArenaPool
}

// engineOptions lowers TrialOptions onto the engine.
func (o TrialOptions) engineOptions() engine.Options[*Distribution] {
	opts := engine.Options[*Distribution]{
		Workers: o.Workers,
		Observe: o.Progress,
		Arenas:  o.Arenas,
	}
	if o.Stop != nil {
		stop := o.Stop
		opts.Stop = func(prefix *Distribution, _ int) bool { return stop(prefix) }
	}
	return opts
}

// DistSink is the engine sink accumulating trial results into per-chunk
// Distributions of ring size n: every batch that aggregates a leader
// distribution (ring, scenario and cointoss alike) folds through it.
func DistSink(n int) engine.Sink[*Distribution] {
	return engine.Sink[*Distribution]{
		New: func() *Distribution { return NewDistribution(n) },
		Add: func(d *Distribution, res sim.Result) { d.Add(res) },
		// Merge cannot fail: every shard is built for the same n, and an
		// in-process batch delivers far fewer than MaxInt messages.
		Merge: func(dst, src *Distribution) { _ = dst.Merge(src) },
	}
}

// StopWhenResolved returns a TrialOptions.Stop rule that halts a batch once
// the max-win rate — the empirical ε estimate of Definition 2.3 — is
// resolved: its Wilson score interval at the given z (1.96 for 95%) is
// narrower than halfWidth on both sides, after at least minTrials trials.
func StopWhenResolved(halfWidth float64, minTrials int, z float64) func(*Distribution) bool {
	return func(d *Distribution) bool {
		if d.Trials < minTrials {
			return false
		}
		leader, rate := d.MaxWin()
		lo, hi := stats.WilsonInterval(d.Counts[leader], d.Trials, z)
		return rate-lo < halfWidth && hi-rate < halfWidth
	}
}

// TrialSeed derives the seed of trial t of a batch from the base seed.
// Every honest trial batch — ring.Trials and the scenario registry alike —
// shares this derivation, which is what lets a registry run reproduce a
// TrialsOpts batch bit-for-bit.
func TrialSeed(base int64, t int) int64 {
	return trialSeed(base, t, honestTag)
}

// Trial t of a batch runs under Mix64(base, t + tag): honest batches tag
// with honestTag, attack batches with attackTag.
const honestTag, attackTag uint64 = 0x1234, 0x9e37

// trialSeed derives trial t's seed from the batch's base seed and tag.
func trialSeed(base int64, t int, tag uint64) int64 {
	return int64(sim.Mix64(uint64(base), uint64(t)+tag))
}

// SchedulerFor supplies the scheduler for one trial of a batched run: t is
// the trial index, trialSeed its derived seed, and arena the calling
// worker's arena (per-trial random schedulers recycle through it, see
// sim.Arena.RandomScheduler). The scenario registry threads its scheduler
// kinds through this hook; a nil SchedulerFor reuses the spec's own
// Scheduler for every trial.
type SchedulerFor func(t int, trialSeed int64, arena *sim.Arena) (sim.Scheduler, error)

// HonestChunkJob returns the batched engine job running honest trials of the
// spec: trial t runs with seed TrialSeed(spec.Seed, t) and the scheduler
// chosen by schedFor (nil = spec.Scheduler throughout). When the protocol
// has a lane form and the batch is plain FIFO (see lanesFor), every whole
// block of Lanes consecutive trials of a chunk runs as one lane execution
// and only the chunk's last (end−start) mod Lanes trials, and any block
// whose lanes diverge, run scalar. When the protocol is Batchable, the
// scalar strategy vector is built and validated once per work-claim chunk
// and re-initialized in place for every trial, with the spec's Deviation
// overlaid on a copy — the per-trial construction cost of a Job-based batch
// disappears, with bit-identical outcomes. Other protocols build their
// vector per trial.
func HonestChunkJob(spec Spec, schedFor SchedulerFor) engine.ChunkJob {
	return &chunkJob{spec: spec, tag: honestTag, schedFor: schedFor,
		lanes: lanesFor(spec, schedFor), batched: Batchable(spec.Protocol)}
}

// honestStrategies validates the spec and builds its honest strategy vector:
// the checks RunArena and the chunk job share.
func honestStrategies(spec Spec) ([]sim.Strategy, error) {
	if spec.N < 2 {
		return nil, fmt.Errorf("ring: need n ≥ 2, got %d", spec.N)
	}
	if spec.Protocol == nil {
		return nil, errors.New("ring: nil protocol")
	}
	strategies, err := spec.Protocol.Strategies(spec.N)
	if err != nil {
		return nil, fmt.Errorf("ring: %s strategies: %w", spec.Protocol.Name(), err)
	}
	if len(strategies) != spec.N {
		return nil, fmt.Errorf("ring: protocol %s returned %d strategies for n=%d",
			spec.Protocol.Name(), len(strategies), spec.N)
	}
	return strategies, nil
}

// Trials runs the given spec repeatedly with derived seeds and aggregates
// the outcomes. The spec's Seed field acts as the base seed; trial t runs
// with an independently mixed seed, so trials are decorrelated but the whole
// batch is reproducible. Trials run in parallel on every CPU; use
// TrialsOpts to tune workers, cancellation, or early stopping. A spec
// carrying a Scheduler or Tracer is pinned to one worker: those are
// typically stateful across executions and not safe to share.
func Trials(spec Spec, trials int) (*Distribution, error) {
	return TrialsOpts(context.Background(), spec, trials, TrialOptions{})
}

// TrialsOpts is Trials with a context and engine options. Specs with a
// Scheduler, Tracer, or Deviation run on a single worker regardless of
// opts.Workers: the interfaces make no concurrency promise, and a
// Deviation's strategy objects are shared across every trial of the batch
// (they must therefore fully re-establish their state in Init — prefer
// RunAttackTrials, which plans a fresh deviation per trial). Everything else
// in the batch is safe to shard because each trial runs on its worker's
// private arena, whose recycled network reproduces a fresh one
// bit-for-bit. The batch runs chunked (engine.RunBatch): Batchable
// protocols reuse one strategy vector per chunk, and a plain batch of a
// LaneProtocol runs its chunks in lane blocks (see HonestChunkJob).
func TrialsOpts(ctx context.Context, spec Spec, trials int, opts TrialOptions) (*Distribution, error) {
	if spec.Scheduler != nil || spec.Tracer != nil || spec.Deviation != nil {
		opts.Workers = 1
	}
	return engine.RunBatch(ctx, trials, HonestChunkJob(spec, nil), DistSink(spec.N), opts.engineOptions())
}

// PlanError marks a per-trial attack planning failure inside a trial
// batch: the attack's Plan rejected the configuration for one trial seed.
// Callers that sweep attack configurations (the equilibrium certifier)
// unwrap it with errors.As to tell "this candidate is infeasible" apart
// from genuine execution failures, which must not be swallowed.
type PlanError struct {
	// Attack and N identify the rejected plan.
	Attack string
	N      int
	// Err is the planner's error.
	Err error
}

// Error implements error.
func (e *PlanError) Error() string { return fmt.Sprintf("plan %s (n=%d): %v", e.Attack, e.N, e.Err) }

// Unwrap exposes the planner's error.
func (e *PlanError) Unwrap() error { return e.Err }

// AttackSpec describes one attack-trial configuration: the batched
// counterpart of Spec. The zero value is not runnable — N, Protocol and
// Attack are required; Target and Seed default to 0 like their Spec
// counterparts.
type AttackSpec struct {
	// N is the ring size.
	N int
	// Protocol provides the honest strategies the coalition deviates from.
	Protocol Protocol
	// Attack plans the per-trial deviation.
	Attack Attack
	// Target is the leader the coalition tries to force.
	Target int64
	// Seed is the batch's base seed; trial t plans and runs with an
	// independently mixed per-trial seed.
	Seed int64
}

// RunAttackTrials plans the attack once per trial (attacks may randomize
// placement from the trial seed) and aggregates outcomes over the batch.
// The batch runs chunked on the parallel engine (AttackChunkJob): when the
// protocol has a lane form, every whole 16-trial block of a chunk runs as
// one lane execution with the coalition in lockstep adapters; otherwise,
// when the protocol is Batchable, the honest strategy vector is built once
// per chunk and each trial's freshly planned deviation is overlaid on a
// per-worker copy, so only the coalition's own strategy objects are
// constructed per trial. The zero TrialOptions uses every CPU with no early
// stopping; any options yield the same distribution for a fixed spec.
func RunAttackTrials(ctx context.Context, spec AttackSpec, trials int, opts TrialOptions) (*Distribution, error) {
	job := AttackChunkJob(spec.N, spec.Protocol, spec.Attack, spec.Target, spec.Seed)
	return engine.RunBatch(ctx, trials, job, DistSink(spec.N), opts.engineOptions())
}

// AttackChunkJob returns the batched engine job behind RunAttackTrials:
// trial t plans the attack with its derived seed and runs it against the
// protocol. Exposing the job lets remote claimants (the fleet's worker
// nodes) run arbitrary sub-ranges of an attack batch through
// engine.RunRange with bit-identical per-trial outcomes.
//
// When the protocol has a lane form that seats coalitions (see lanesFor and
// LaneProtocol), every whole block of Lanes trials of a chunk plans its
// Lanes deviations and, if they all plan, validate and share one coalition,
// runs as one lane execution: honest processors run the protocol's lane
// strategies, and each coalition member runs its Lanes planned strategies
// side by side in a lockstep adapter. A block whose plans differ or fail,
// or whose lanes diverge, runs scalar with fresh plans, so every trial adds
// the Result, or returns the error, of the scalar loop. A BatchSafe attack
// is planned once per worker and (attack, target), and its strategies are
// re-initialized for each block.
func AttackChunkJob(n int, protocol Protocol, attack Attack, target int64, baseSeed int64) engine.ChunkJob {
	spec := Spec{N: n, Protocol: protocol, Seed: baseSeed}
	j := &chunkJob{spec: spec, tag: attackTag, attack: attack, target: target,
		lanes: lanesFor(spec, nil), batched: Batchable(protocol)}
	if _, ok := attack.(interface{ BatchSafe() }); ok {
		j.reuse = planKey{attack, target}
	}
	return j
}

// chunkJob is the one engine job behind every ring trial batch, honest
// (HonestChunkJob) and attacked (AttackChunkJob). Trial t runs under
// trialSeed(spec.Seed, t, tag) with the spec's scheduler, or schedFor's,
// and with the spec's Deviation or, when attack is set, the one the attack
// plans under the trial's seed.
type chunkJob struct {
	spec     Spec
	tag      uint64
	schedFor SchedulerFor
	attack   Attack // nil for honest batches
	target   int64
	lanes    LaneProtocol // nil: every trial runs scalar
	reuse    planKey      // set for a BatchSafe attack
	batched  bool         // one honest vector serves the whole chunk
}

// RunChunk implements engine.ChunkJob: every whole block of Lanes trials
// runs as one lane execution where the job has a lane path, and every other
// trial, and every block that declines or diverges, runs scalar.
func (j *chunkJob) RunChunk(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
	n := j.spec.N
	var block func(t int) (bool, error)
	if j.lanes != nil && end-start >= Lanes {
		w := keepLanes(arena, j.lanes, n)
		if r := w.runner(j.attack != nil); r != nil {
			var fresh [Lanes]*Deviation
			block = func(t int) (bool, error) {
				var seeds [Lanes]int64
				for l := range seeds {
					seeds[l] = trialSeed(j.spec.Seed, t+l, j.tag)
				}
				var devs *[Lanes]*Deviation
				if j.attack != nil {
					if devs = w.reusedPlans(j.reuse); devs == nil {
						if !planLanes(&fresh, j.attack, n, j.target, seeds) {
							return false, nil
						}
						devs = &fresh
						if j.reuse.attack != nil {
							kept := fresh
							w.planFor, w.plans = j.reuse, &kept
						}
					}
				}
				return runLaneBlock(r, arena, t, seeds, devs, add)
			}
		}
	}
	// A batched chunk builds the honest vector on its first scalar trial
	// and lets Init (total reset, the BatchSafe contract) refresh it for
	// each later trial; RunVector overlays each trial's deviation on a
	// copy.
	var honest []sim.Strategy
	scalar := func(t int) error {
		spec := j.spec
		spec.Seed = trialSeed(j.spec.Seed, t, j.tag)
		if honest == nil || !j.batched {
			var err error
			if honest, err = honestStrategies(spec); err != nil {
				return fmt.Errorf("trial %d: %w", t, err)
			}
		}
		if j.schedFor != nil {
			sched, err := j.schedFor(t, spec.Seed, arena)
			if err != nil {
				return err
			}
			spec.Scheduler = sched
		}
		if j.attack != nil {
			dev, err := j.attack.Plan(n, j.target, spec.Seed)
			if err != nil {
				return &PlanError{Attack: j.attack.Name(), N: n, Err: err}
			}
			spec.Deviation = dev
		}
		res, err := RunVector(spec, honest, arena)
		if err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
		add(res)
		return nil
	}
	return runBlocks(start, end, block, scalar)
}

// planLanes plans one lane block's deviations into devs, lane l under
// seeds[l]. It reports whether the block can run as a lane execution: every
// plan succeeded, validates, and shares lane 0's coalition.
func planLanes(devs *[Lanes]*Deviation, attack Attack, n int, target int64, seeds [Lanes]int64) bool {
	for l, seed := range seeds {
		dev, err := attack.Plan(n, target, seed)
		if err != nil || dev == nil || dev.Validate(n) != nil ||
			(l > 0 && !slices.Equal(dev.Coalition, devs[0].Coalition)) {
			return false
		}
		devs[l] = dev
	}
	return true
}
