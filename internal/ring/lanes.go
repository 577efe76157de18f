package ring

import (
	"fmt"

	"repro/internal/sim"
)

// Lanes is the lane width of a lane execution: the number of honest trials
// one simulated ring carries at once.
const Lanes = 16

// LaneProtocol is a Protocol with a lane form. Its honest schedule does not
// depend on the processors' values, so Lanes honest executions under
// different seeds can share one simulated ring and split back into the
// Results their scalar runs return. HonestChunkJob runs every whole block of
// Lanes consecutive trials of an eligible chunk as one lane execution.
//
// A LaneProtocol must be comparable: a worker's arena keeps its runner keyed
// by the protocol value and the ring size.
type LaneProtocol interface {
	Protocol
	// NewLaneRunner builds a lane runner for rings of n processors.
	NewLaneRunner(n int) (LaneRunner, error)
}

// LaneRunner runs Lanes honest executions of one ring size on one simulated
// ring. It belongs to one goroutine at a time.
type LaneRunner interface {
	// Run executes lane l under seeds[l] on the caller's arena. Result l
	// equals RunArena's for the honest FIFO run under seeds[l]; the results
	// alias runner memory and are invalidated by the next Run.
	Run(arena *sim.Arena, seeds [Lanes]int64) ([]sim.Result, error)
}

// laneKey keys the lane runner a worker's arena keeps.
type laneKey struct {
	p LaneProtocol
	n int
}

// lanesFor picks the lane protocol that runs the spec's honest chunks, from
// the input alone. It returns nil, and every trial runs scalar, unless the
// protocol has a lane form and the batch is plain: no per-trial scheduler
// hook and no spec scheduler (so the schedule is FIFO), no tracer, no step
// limit and no deviation. Rings below two processors stay scalar, so they
// fail with the scalar path's validation error.
func lanesFor(spec Spec, schedFor SchedulerFor) LaneProtocol {
	lp, ok := spec.Protocol.(LaneProtocol)
	if !ok || spec.N < 2 || schedFor != nil || spec.Scheduler != nil ||
		spec.Tracer != nil || spec.StepLimit != 0 || spec.Deviation != nil {
		return nil
	}
	return lp
}

// runLanes runs every whole block of Lanes consecutive trials of [start,
// end) as one lane execution, adding the results in trial order: lane l of
// the block starting at trial t runs under TrialSeed(spec.Seed, t+l). It
// returns the first trial it left to the scalar path. The runner is kept on
// the arena, so a worker builds it once for all its chunks of one protocol
// and ring size.
func runLanes(lp LaneProtocol, spec Spec, start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
	if end-start < Lanes {
		return start, nil
	}
	kept, err := arena.Keep(laneKey{lp, spec.N}, func() (any, error) { return lp.NewLaneRunner(spec.N) })
	if err != nil {
		return start, fmt.Errorf("trial %d: %w", start, err)
	}
	runner := kept.(LaneRunner)
	t := start
	for ; t+Lanes <= end; t += Lanes {
		var seeds [Lanes]int64
		for l := range seeds {
			seeds[l] = TrialSeed(spec.Seed, t+l)
		}
		block, err := runner.Run(arena, seeds)
		if err != nil {
			return t, fmt.Errorf("trials %d-%d: %w", t, t+Lanes-1, err)
		}
		for _, res := range block {
			add(res)
		}
	}
	return t, nil
}
