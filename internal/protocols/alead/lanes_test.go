package alead

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ring"
	"repro/internal/sim"
)

// laneSeeds returns block b's lane seeds, spread over the seed space.
func laneSeeds(b int) [Lanes]int64 {
	var seeds [Lanes]int64
	for l := range seeds {
		seeds[l] = int64(sim.Mix64(uint64(b), uint64(l)))
	}
	return seeds
}

// laneVec builds the honest lane vector for rings of n processors on a
// fresh lane state, for tests that run it on a network of their own.
func laneVec(t *testing.T, n int) (*ring.LaneState, []sim.Strategy) {
	t.Helper()
	st := ring.NewLaneState(n)
	vec, err := Protocol{}.LaneStrategies(n, st, false)
	if err != nil {
		t.Fatal(err)
	}
	return st, vec
}

// TestLanesMatchScalar is the lane form's differential test: every lane's
// full Result must equal the scalar ring.RunArena run under the lane's seed.
func TestLanesMatchScalar(t *testing.T) {
	for _, n := range []int{2, 3, 5, 16, 100, 257} {
		lr, err := ring.NewLaneRunner(New(), n, false)
		if err != nil {
			t.Fatal(err)
		}
		laneArena, scalarArena := sim.NewArena(), sim.NewArena()
		for b := 0; b < 4; b++ {
			seeds := laneSeeds(b)
			got, ok, err := lr.Run(laneArena, seeds, nil)
			if err != nil || !ok {
				t.Fatalf("n=%d block %d: ok=%v, %v", n, b, ok, err)
			}
			if len(got) != Lanes {
				t.Fatalf("n=%d: %d results, want %d", n, len(got), Lanes)
			}
			for l, seed := range seeds {
				want, err := ring.RunArena(ring.Spec{N: n, Protocol: New(), Seed: seed}, scalarArena)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := got[l].Clone(), want.Clone(); !reflect.DeepEqual(g, w) {
					t.Fatalf("n=%d block %d lane %d: lanes %+v, scalar %+v", n, b, l, g, w)
				}
			}
		}
	}
}

// TestLanesStepLimitFailsEveryLane stops a lane execution on a delivery
// budget: every lane must report the scalar run's FailStepLimit result under
// the same budget, running processors included.
func TestLanesStepLimitFailsEveryLane(t *testing.T) {
	const n = 16
	st, vec := laneVec(t, n)
	for _, limit := range []int{1, n*n/2 + 3, n*n - 1} {
		seeds := laneSeeds(limit)
		st.Seeds = seeds
		net, err := sim.New(sim.Config{Strategies: vec, Edges: sim.RingEdges(n), StepLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		got := st.Split(net.Run())
		for l, seed := range seeds {
			want, err := ring.Run(ring.Spec{N: n, Protocol: New(), Seed: seed, StepLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if want.Reason != sim.FailStepLimit {
				t.Fatalf("limit %d: scalar reason %v, want step-limit", limit, want.Reason)
			}
			if !reflect.DeepEqual(got[l].Clone(), want.Clone()) {
				t.Fatalf("limit %d lane %d: lanes %+v, scalar %+v", limit, l, got[l], want)
			}
		}
	}
}

// inFlight is a tracer that checks the lane table's invariant: at most one
// message is ever in flight, so two payload slots suffice. It also corrupts
// one lane's value in the last message delivered to a chosen processor.
type inFlight struct {
	n        int
	sent     int
	consumed int
	maxLive  int

	sh          *laneShared
	victim      sim.ProcID
	corruptLane int
}

func (f *inFlight) OnSend(sim.ProcID, int, sim.ProcID, int64) {
	f.sent++
	if live := f.sent - f.consumed; live > f.maxLive {
		f.maxLive = live
	}
}

func (f *inFlight) OnDeliver(to sim.ProcID, k int, _ sim.ProcID, slot int64) {
	f.consumed++
	if f.sh != nil && to == f.victim && k == f.n {
		f.sh.table[slot&1][f.corruptLane]++
	}
}

func (f *inFlight) OnTerminate(sim.ProcID, int64, bool) {}

// TestLanesOneMessageInFlight asserts the invariant the two-slot payload
// table rests on, and the honest schedule's counts: n² sends, n²
// deliveries, no drops.
func TestLanesOneMessageInFlight(t *testing.T) {
	for n := 2; n <= 257; n++ {
		st, vec := laneVec(t, n)
		st.Seeds = laneSeeds(n)
		tr := &inFlight{n: n}
		net, err := sim.New(sim.Config{Strategies: vec, Edges: sim.RingEdges(n), Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		res := net.Run()
		if tr.maxLive != 1 {
			t.Fatalf("n=%d: up to %d messages in flight, want 1", n, tr.maxLive)
		}
		if tr.sent != n*n || res.Delivered != n*n || res.Dropped != 0 || res.Steps != n*n {
			t.Fatalf("n=%d: sent %d, delivered %d, dropped %d, steps %d; want n² sends and deliveries, no drops",
				n, tr.sent, res.Delivered, res.Dropped, res.Steps)
		}
	}
}

// TestLanesAbortIsPerLane corrupts one lane's final value at one processor:
// that lane alone must fail with FailAbort, the processor aborted with
// output 0, while every other lane still equals its scalar run.
func TestLanesAbortIsPerLane(t *testing.T) {
	const n, lane = 9, 5
	for _, victim := range []sim.ProcID{1, 4, n} {
		st, vec := laneVec(t, n)
		seeds := laneSeeds(int(victim))
		st.Seeds = seeds
		tr := &inFlight{n: n, sh: vec[0].(*laneOrigin).sh, victim: victim, corruptLane: lane}
		net, err := sim.New(sim.Config{Strategies: vec, Edges: sim.RingEdges(n), Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		got := st.Split(net.Run())
		for l, seed := range seeds {
			want, err := ring.Run(ring.Spec{N: n, Protocol: New(), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if l != lane {
				if !reflect.DeepEqual(got[l].Clone(), want.Clone()) {
					t.Fatalf("victim %d lane %d: lanes %+v, scalar %+v", victim, l, got[l], want)
				}
				continue
			}
			g := got[l]
			if !g.Failed || g.Reason != sim.FailAbort || g.Output != 0 {
				t.Fatalf("victim %d: corrupted lane failed=%v reason=%v output=%d, want abort",
					victim, g.Failed, g.Reason, g.Output)
			}
			for i := 1; i <= n; i++ {
				wantStatus, wantOut := sim.StatusTerminated, want.Outputs[i]
				if sim.ProcID(i) == victim {
					wantStatus, wantOut = sim.StatusAborted, 0
				}
				if g.Statuses[i] != wantStatus || g.Outputs[i] != wantOut {
					t.Fatalf("victim %d processor %d: %v/%d, want %v/%d",
						victim, i, g.Statuses[i], g.Outputs[i], wantStatus, wantOut)
				}
			}
			if g.Delivered != want.Delivered || g.Dropped != want.Dropped || g.Steps != want.Steps {
				t.Fatalf("victim %d: counters %d/%d/%d, scalar %d/%d/%d", victim,
					g.Delivered, g.Dropped, g.Steps, want.Delivered, want.Dropped, want.Steps)
			}
		}
	}
}

func TestNewLaneRunnerRejectsTinyRings(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if _, err := ring.NewLaneRunner(New(), n, false); err == nil {
			t.Fatalf("n=%d accepted", n)
		}
	}
}

// TestNewLaneRunnerRejectsRingsBeyondInt32 pins the int32 lane values'
// bound: a ring whose secrets might not fit an int32 is refused before
// anything is allocated.
func TestNewLaneRunnerRejectsRingsBeyondInt32(t *testing.T) {
	if _, err := ring.NewLaneRunner(New(), math.MaxInt32+1, false); err == nil {
		t.Fatal("n = MaxInt32+1 accepted")
	}
}
