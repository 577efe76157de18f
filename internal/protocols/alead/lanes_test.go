package alead

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// sumRings are the protocols whose lane form is ring's sum-ring kernel
// (ring.SumLanes): A-LEADuni, whose normal processors buffer one secret,
// and Basic-LEAD, whose processors all forward. The lane tests run both.
var sumRings = []ring.LaneProtocol{New(), basiclead.New()}

// laneSeeds returns block b's lane seeds, spread over the seed space.
func laneSeeds(b int) [ring.Lanes]int64 {
	var seeds [ring.Lanes]int64
	for l := range seeds {
		seeds[l] = int64(sim.Mix64(uint64(b), uint64(l)))
	}
	return seeds
}

// laneVec builds p's honest lane vector for rings of n processors on a
// fresh lane state, for tests that run it on a network of their own.
func laneVec(t *testing.T, p ring.LaneProtocol, n int) (*ring.LaneState, []sim.Strategy) {
	t.Helper()
	st := ring.NewLaneState(n)
	vec, err := p.LaneStrategies(n, st, false)
	if err != nil || vec == nil {
		t.Fatalf("%s n=%d: no lane vector: %v", p.Name(), n, err)
	}
	return st, vec
}

// TestLanesMatchScalar is the lane form's differential test: every lane's
// full Result must equal the scalar ring.RunArena run under the lane's seed.
func TestLanesMatchScalar(t *testing.T) {
	for _, p := range sumRings {
		for _, n := range []int{2, 3, 5, 16, 100, 257} {
			lr, err := ring.NewLaneRunner(p, n, false)
			if err != nil {
				t.Fatal(err)
			}
			laneArena, scalarArena := sim.NewArena(), sim.NewArena()
			for b := 0; b < 4; b++ {
				seeds := laneSeeds(b)
				got, ok, err := lr.Run(laneArena, seeds, nil)
				if err != nil || !ok {
					t.Fatalf("%s n=%d block %d: ok=%v, %v", p.Name(), n, b, ok, err)
				}
				if len(got) != ring.Lanes {
					t.Fatalf("%s n=%d: %d results, want %d", p.Name(), n, len(got), ring.Lanes)
				}
				for l, seed := range seeds {
					want, err := ring.RunArena(ring.Spec{N: n, Protocol: p, Seed: seed}, scalarArena)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := got[l].Clone(), want.Clone(); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s n=%d block %d lane %d: lanes %+v, scalar %+v", p.Name(), n, b, l, g, w)
					}
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
	for _, p := range sumRings {
		st, vec := laneVec(t, p, n)
		for _, limit := range []int{1, n*n/2 + 3, n*n - 1} {
			seeds := laneSeeds(limit)
			st.Seeds = seeds
			net, err := sim.New(sim.Config{Strategies: vec, Edges: sim.RingEdges(n), StepLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			got := st.Split(net.Run())
			for l, seed := range seeds {
				want, err := ring.Run(ring.Spec{N: n, Protocol: p, Seed: seed, StepLimit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if want.Reason != sim.FailStepLimit {
					t.Fatalf("%s limit %d: scalar reason %v, want step-limit", p.Name(), limit, want.Reason)
				}
				if !reflect.DeepEqual(got[l].Clone(), want.Clone()) {
					t.Fatalf("%s limit %d lane %d: lanes %+v, scalar %+v", p.Name(), limit, l, got[l], want)
				}
			}
		}
	}
}

// inFlight is a tracer that counts sends and deliveries and tracks the
// most messages ever in flight at once.
type inFlight struct {
	sent, consumed, maxLive int
}

func (f *inFlight) OnSend(sim.ProcID, int, sim.ProcID, int64) {
	f.sent++
	f.maxLive = max(f.maxLive, f.sent-f.consumed)
}

func (f *inFlight) OnDeliver(sim.ProcID, int, sim.ProcID, int64) { f.consumed++ }

func (f *inFlight) OnTerminate(sim.ProcID, int64, bool) {}

// TestLanesHonestSchedule pins the honest lane schedule: n² sends, n²
// deliveries and no drops, with one message in flight at a time on an
// A-LEADuni ring and n at once on a Basic-LEAD ring, whose processors all
// send in Init. Rows serve both, since no row changes after Init.
func TestLanesHonestSchedule(t *testing.T) {
	for _, p := range sumRings {
		for n := 2; n <= 257; n++ {
			st, vec := laneVec(t, p, n)
			st.Seeds = laneSeeds(n)
			tr := &inFlight{}
			net, err := sim.New(sim.Config{Strategies: vec, Edges: sim.RingEdges(n), Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			res := net.Run()
			wantLive := n
			if _, buffered := p.(Protocol); buffered {
				wantLive = 1
			}
			if tr.maxLive != wantLive {
				t.Fatalf("%s n=%d: up to %d messages in flight, want %d", p.Name(), n, tr.maxLive, wantLive)
			}
			if tr.sent != n*n || res.Delivered != n*n || res.Dropped != 0 || res.Steps != n*n {
				t.Fatalf("%s n=%d: sent %d, delivered %d, dropped %d, steps %d; want n² sends and deliveries, no drops",
					p.Name(), n, tr.sent, res.Delivered, res.Dropped, res.Steps)
			}
		}
	}
}

// redirect delivers row `to` in place of the row of its processor's n-th
// receipt, the one the final check compares with the processor's own.
type redirect struct {
	sim.Strategy
	n, received int
	to          int64
}

func (r *redirect) Init(ctx *sim.Context) {
	r.received = 0
	r.Strategy.Init(ctx)
}

func (r *redirect) Receive(ctx *sim.Context, from sim.ProcID, row int64) {
	if r.received++; r.received == r.n {
		row = r.to
	}
	r.Strategy.Receive(ctx, from, row)
}

// TestLanesAbortIsPerLane hands one processor another processor's row as
// its n-th receipt. The final check compares values lane by lane, so
// exactly the lanes in which the two secrets differ must fail with
// FailAbort, the processor aborted with output 0 and every other processor
// as in the scalar run, while the lanes in which they agree equal their
// scalar runs. A check that compared row indices would abort every lane.
func TestLanesAbortIsPerLane(t *testing.T) {
	const n = 9
	secret := func(seed int64, id sim.ProcID) int64 {
		rng := sim.NewStream(seed, id)
		return rng.Int63n(n)
	}
	for _, p := range sumRings {
		for _, victim := range []sim.ProcID{1, 4, n} {
			other := victim%n + 1
			// Find a block in which the two secrets agree in some lanes
			// and differ in others.
			var seeds [ring.Lanes]int64
			var differs [ring.Lanes]bool
			for b := 0; ; b++ {
				seeds = laneSeeds(1000*int(victim) + b)
				same := 0
				for l, seed := range seeds {
					differs[l] = secret(seed, victim) != secret(seed, other)
					if !differs[l] {
						same++
					}
				}
				if same > 0 && same < ring.Lanes {
					break
				}
			}
			st, vec := laneVec(t, p, n)
			st.Seeds = seeds
			vec[victim-1] = &redirect{Strategy: vec[victim-1], n: n, to: int64(other)}
			net, err := sim.New(sim.Config{Strategies: vec, Edges: sim.RingEdges(n)})
			if err != nil {
				t.Fatal(err)
			}
			got := st.Split(net.Run())
			for l, seed := range seeds {
				want, err := ring.Run(ring.Spec{N: n, Protocol: p, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if !differs[l] {
					if !reflect.DeepEqual(got[l].Clone(), want.Clone()) {
						t.Fatalf("%s victim %d lane %d: lanes %+v, scalar %+v", p.Name(), victim, l, got[l], want)
					}
					continue
				}
				g := got[l]
				if !g.Failed || g.Reason != sim.FailAbort || g.Output != 0 {
					t.Fatalf("%s victim %d lane %d: failed=%v reason=%v output=%d, want abort",
						p.Name(), victim, l, g.Failed, g.Reason, g.Output)
				}
				for i := 1; i <= n; i++ {
					wantStatus, wantOut := sim.StatusTerminated, want.Outputs[i]
					if sim.ProcID(i) == victim {
						wantStatus, wantOut = sim.StatusAborted, 0
					}
					if g.Statuses[i] != wantStatus || g.Outputs[i] != wantOut {
						t.Fatalf("%s victim %d lane %d processor %d: %v/%d, want %v/%d",
							p.Name(), victim, l, i, g.Statuses[i], g.Outputs[i], wantStatus, wantOut)
					}
				}
				if g.Delivered != want.Delivered || g.Dropped != want.Dropped || g.Steps != want.Steps {
					t.Fatalf("%s victim %d: counters %d/%d/%d, scalar %d/%d/%d", p.Name(), victim,
						g.Delivered, g.Dropped, g.Steps, want.Delivered, want.Dropped, want.Steps)
				}
			}
		}
	}
}

func TestNewLaneRunnerRejectsTinyRings(t *testing.T) {
	for _, p := range sumRings {
		for _, n := range []int{-1, 0, 1} {
			if _, err := ring.NewLaneRunner(p, n, false); err == nil {
				t.Fatalf("%s n=%d accepted", p.Name(), n)
			}
		}
	}
}

// TestLaneFormStopsAt65536 pins where the packed 32-bit lane sums stay
// exact, n(n−1) < 2³²: a ring of 65,536 processors gets a lane vector, and
// larger rings, like a vector asked to seat a coalition, get none and no
// error, so their blocks run scalar. No ring runs.
func TestLaneFormStopsAt65536(t *testing.T) {
	for _, p := range sumRings {
		if vec, err := p.LaneStrategies(1<<16, new(ring.LaneState), false); err != nil || len(vec) != 1<<16 {
			t.Fatalf("%s n=65536: %d lane strategies, %v; want 65536", p.Name(), len(vec), err)
		}
		for _, c := range []struct {
			n         int
			coalition bool
		}{{1<<16 + 1, false}, {math.MaxInt32 + 1, false}, {16, true}} {
			if vec, err := p.LaneStrategies(c.n, new(ring.LaneState), c.coalition); err != nil || vec != nil {
				t.Fatalf("%s n=%d coalition=%v: %d lane strategies, %v; want none and no error",
					p.Name(), c.n, c.coalition, len(vec), err)
			}
		}
	}
}
