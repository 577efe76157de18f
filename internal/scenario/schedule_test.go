package scenario

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/protocols/alead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// TestScheduleIndependenceOnRings is the Section 2 claim as a property test:
// on a unidirectional ring every processor has a single incoming FIFO link,
// so every oblivious schedule produces the same local computations. For
// every registered ring-topology scenario — honest and attacked alike — one
// execution at a fixed seed must be bit-identical under FIFO, LIFO, and
// random schedules: same output, same failure classification, same number
// of delivered messages.
func TestScheduleIndependenceOnRings(t *testing.T) {
	seeds := []int64{1, 20180516, 77003}
	if testing.Short() {
		seeds = seeds[:1]
	}
	covered := 0
	for _, s := range All() {
		s := s
		if s.proto == nil {
			continue // non-ring topology: the claim does not apply
		}
		// Scheduler variants of the same configuration would re-test the
		// identical execution triple; the FIFO registration covers them.
		if s.Scheduler != SchedFIFO {
			continue
		}
		covered++
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				fifo, ok, err := s.SingleRun(seed, nil, Opts{})
				if !ok {
					t.Fatal("ring scenario lost its single-run hook")
				}
				if err != nil {
					t.Fatalf("seed %d fifo: %v", seed, err)
				}
				lifo, _, err := s.SingleRun(seed, sim.LIFOScheduler{}, Opts{})
				if err != nil {
					t.Fatalf("seed %d lifo: %v", seed, err)
				}
				random, _, err := s.SingleRun(seed, sim.NewRandomScheduler(seed), Opts{})
				if err != nil {
					t.Fatalf("seed %d random: %v", seed, err)
				}
				for name, got := range map[string]sim.Result{"lifo": lifo, "random": random} {
					if got.Output != fifo.Output || got.Failed != fifo.Failed || got.Reason != fifo.Reason {
						t.Errorf("seed %d: %s outcome (out=%d failed=%v reason=%v) diverges from fifo (out=%d failed=%v reason=%v)",
							seed, name, got.Output, got.Failed, got.Reason, fifo.Output, fifo.Failed, fifo.Reason)
					}
					if got.Delivered != fifo.Delivered {
						t.Errorf("seed %d: %s delivered %d messages, fifo %d",
							seed, name, got.Delivered, fifo.Delivered)
					}
				}
			}
		})
	}
	if covered < 15 {
		t.Errorf("property covered only %d ring scenarios, want ≥ 15", covered)
	}
}

// TestNonRingScenariosHaveNoSingleRun documents the inverse: the property
// is claimed for rings only, and SingleRun says so.
func TestNonRingScenariosHaveNoSingleRun(t *testing.T) {
	for _, s := range All() {
		isRing := strings.HasPrefix(s.Topology, "ring") || s.Topology == "wakeup"
		_, ok, _ := s.SingleRun(1, nil, Opts{})
		if ok != isRing {
			t.Errorf("%s (topology %s): SingleRun ok=%v, want %v", s.Name, s.Topology, ok, isRing)
		}
	}
}

// laneSpy is A-LEADuni whose lane vectors count their lane executions.
type laneSpy struct {
	alead.Protocol
	runs *atomic.Int64
}

func (p laneSpy) LaneStrategies(n int, st *ring.LaneState, coalition bool) ([]sim.Strategy, error) {
	vec, err := p.Protocol.LaneStrategies(n, st, coalition)
	if err != nil || vec == nil {
		return vec, err
	}
	vec[0] = laneSpyOrigin{vec[0], p.runs}
	return vec, nil
}

// laneSpyOrigin counts lane executions: the origin wakes once per
// execution.
type laneSpyOrigin struct {
	sim.Strategy
	runs *atomic.Int64
}

func (o laneSpyOrigin) Init(ctx *sim.Context) {
	o.runs.Add(1)
	o.Strategy.Init(ctx)
}

// TestRingHonestLanesOnlyFIFO pins which honest ring batches run lane
// executions: a FIFO scenario's chunks of a lane protocol do, one per whole
// block of ring.Lanes trials, and LIFO and random scenarios never do, even
// though a ring's outcomes do not depend on the schedule.
func TestRingHonestLanesOnlyFIFO(t *testing.T) {
	const trials = 2*ring.Lanes + 3
	for _, c := range []struct {
		sched string
		runs  int64
	}{{SchedFIFO, 2}, {SchedLIFO, 0}, {SchedRandom, 0}} {
		spy := laneSpy{runs: new(atomic.Int64)}
		chunks := ringHonest(spy, c.sched)
		job, err := chunks(11, params{N: 16})
		if err != nil {
			t.Fatal(err)
		}
		added := 0
		if _, err := job.RunChunk(0, trials, sim.NewArena(), func(sim.Result) { added++ }); err != nil {
			t.Fatalf("%s: %v", c.sched, err)
		}
		if added != trials || spy.runs.Load() != c.runs {
			t.Fatalf("%s: %d results from %d lane executions, want %d from %d",
				c.sched, added, spy.runs.Load(), trials, c.runs)
		}
	}
}
