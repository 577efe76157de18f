// Package ring runs fair-leader-election protocols and adversarial
// deviations on the asynchronous unidirectional ring, the central topology of
// the paper. It provides the protocol and attack abstractions shared by all
// protocol packages, coalition-placement helpers, and a trial harness that
// estimates outcome distributions.
package ring

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Protocol is a symmetric ring protocol: it assigns a strategy to every
// position of a ring of size n. Position 1 is the origin, the only processor
// that wakes up spontaneously.
//
// Trial batches run protocols in parallel (see Trials), so Strategies must
// be safe for concurrent calls: return fresh strategy values each time and
// do not memoize into shared mutable state. Every protocol in this
// repository is a stateless value type.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Strategies returns the honest strategy vector for a ring of size n.
	Strategies(n int) ([]sim.Strategy, error)
}

// Deviation is an adversarial deviation (Definition 2.2): a coalition of
// processors and the arbitrary strategies they run instead of the protocol.
// All other processors execute the protocol honestly.
type Deviation struct {
	// Coalition lists the adversaries' positions, strictly increasing.
	Coalition []sim.ProcID
	// Strategies maps each coalition member to its deviating strategy.
	Strategies map[sim.ProcID]sim.Strategy
}

// Validate checks internal consistency against a ring of size n.
func (d *Deviation) Validate(n int) error {
	if d == nil {
		return nil
	}
	if len(d.Coalition) == 0 {
		return errors.New("ring: empty coalition")
	}
	prev := sim.ProcID(0)
	for _, p := range d.Coalition {
		if p < 1 || int(p) > n {
			return fmt.Errorf("ring: coalition member %d out of range [1,%d]", p, n)
		}
		if p <= prev {
			return errors.New("ring: coalition not strictly increasing")
		}
		prev = p
		if d.Strategies[p] == nil {
			return fmt.Errorf("ring: no strategy for coalition member %d", p)
		}
	}
	return nil
}

// Attack plans an adversarial deviation against a protocol on a ring of size
// n, trying to force the election of target.
//
// RunAttackTrials plans attacks in parallel, so Plan must be safe for
// concurrent calls: derive all randomness from the seed argument and build
// a fresh Deviation each time, without mutating receiver state. Every
// attack in this repository is a stateless value type.
//
// An attack may declare a `BatchSafe()` marker method. It promises three
// things: Plan ignores its seed, each planned strategy's Init fully resets
// it, and the attack value is comparable. AttackChunkJob then plans such an
// attack once per worker and (attack, target) for its lane blocks, and
// re-initializes the planned strategies for each block instead of planning
// Lanes fresh deviations per block.
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// Plan returns the deviation for one trial, or an error when no
	// placement of the attack's coalition is feasible for this n (e.g.
	// the cubic attack's distance inequalities have no solution). seed
	// lets attacks with randomized placement (Appendix C) draw their
	// coalition reproducibly; deterministic attacks ignore it.
	Plan(n int, target int64, seed int64) (*Deviation, error)
}

// Batchable reports whether the protocol's strategy vector can serve every
// trial of an engine chunk. A protocol opts in by declaring a `BatchSafe()`
// marker method, promising that each strategy's Init fully re-establishes its
// state — a reused object then behaves exactly like a fresh one, and the
// batched trial loop (see HonestChunkJob) skips per-trial vector
// construction without changing any outcome.
func Batchable(p Protocol) bool {
	_, ok := p.(interface{ BatchSafe() })
	return ok
}

// Spec describes one execution.
type Spec struct {
	// N is the ring size.
	N int
	// Protocol provides the honest strategies.
	Protocol Protocol
	// Deviation, if non-nil, overrides coalition positions.
	Deviation *Deviation
	// Seed drives all processor randomness.
	Seed int64
	// Scheduler defaults to FIFO (equivalent to any other on a ring).
	Scheduler sim.Scheduler
	// Tracer, if non-nil, observes the execution.
	Tracer sim.Tracer
	// StepLimit overrides the simulator's default delivery budget.
	StepLimit int
}

// Run executes one ring election and returns its result.
func Run(spec Spec) (sim.Result, error) {
	return RunArena(spec, nil)
}

// RunArena is Run on a recycled per-worker simulation arena: the network,
// the ring edge set, the per-processor PRNGs and the result buffers are all
// reused across calls, so a trial batch allocates little beyond the
// protocol's own strategy objects. A nil arena falls back to fresh
// allocations with an identical result. The returned Result may alias arena
// memory; it is invalidated by the arena's next run (sim.Result.Clone copies
// it out).
func RunArena(spec Spec, arena *sim.Arena) (sim.Result, error) {
	strategies, err := honestStrategies(spec)
	if err != nil {
		return sim.Result{}, err
	}
	return RunVector(spec, strategies, arena)
}

// RunVector runs one ring election of the spec on an honest strategy vector
// the caller already built for spec.N; spec.Protocol is not consulted. It
// validates spec.Deviation and overlays it on a copy in the arena's scratch,
// so the vector stays untouched and can serve the next execution. Every ring
// execution runs through it: RunArena, every trial of a chunk job, lane
// executions and the committee's sub-elections.
func RunVector(spec Spec, strategies []sim.Strategy, arena *sim.Arena) (sim.Result, error) {
	if err := spec.Deviation.Validate(spec.N); err != nil {
		return sim.Result{}, err
	}
	if spec.Deviation != nil {
		overlaid := arena.Strategies(spec.N)
		copy(overlaid, strategies)
		for p, s := range spec.Deviation.Strategies {
			overlaid[p-1] = s
		}
		strategies = overlaid
	}
	return arena.Run(sim.Config{
		Strategies: strategies,
		Edges:      arena.RingEdges(spec.N),
		Seed:       spec.Seed,
		Scheduler:  spec.Scheduler,
		Tracer:     spec.Tracer,
		StepLimit:  spec.StepLimit,
	})
}
