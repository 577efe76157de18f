package committee

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/attacks"
	"repro/internal/protocols/alead"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestPartition pins the partition invariants: ⌊√n⌋ contiguous groups whose
// sizes differ by at most one, covering [1..n] in order, with GroupOf
// agreeing with the interval bounds at every position.
func TestPartition(t *testing.T) {
	for _, n := range []int{4, 5, 6, 8, 17, 32, 100, 256, 1000, 12345, 50000} {
		e, err := New(n, InnerBasic)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		g := e.Groups()
		if g*g > n || (g+1)*(g+1) <= n {
			t.Fatalf("n=%d: g=%d is not ⌊√n⌋", n, g)
		}
		sizes := e.GroupSizes()
		if len(sizes) != g {
			t.Fatalf("n=%d: %d sizes for %d groups", n, len(sizes), g)
		}
		total, min, max := 0, n, 0
		for _, s := range sizes {
			total += s
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if total != n {
			t.Fatalf("n=%d: sizes sum to %d", n, total)
		}
		if max-min > 1 || min < 2 {
			t.Fatalf("n=%d: unbalanced sizes min=%d max=%d", n, min, max)
		}
		pos := int64(1)
		for j, s := range sizes {
			for i := 0; i < s; i++ {
				if got := e.GroupOf(pos); got != j {
					t.Fatalf("n=%d: GroupOf(%d)=%d, want %d", n, pos, got, j)
				}
				pos++
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, InnerBasic); err == nil {
		t.Fatal("n=3 accepted")
	}
	if _, err := New(16, "phase"); err == nil {
		t.Fatal("unknown inner discipline accepted")
	}
	e, err := New(16, InnerALead)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int64{0, -1, 17} {
		if _, err := e.AttackRunner(target); err == nil {
			t.Fatalf("target %d accepted", target)
		}
	}
}

// TestCompositionUniform is the composition property test: with uniform
// in-group winners and a uniform winning-group residue, the composed leader
// must be uniform over [1..n]. Both layers are checked on the same trials —
// every group's local winner within its Wilson interval around 1/size, and
// every participant's composed win rate within its Wilson interval around
// 1/n. The run is deterministic (fixed seed), so the bounds are exact
// assertions, not flaky statistics; z=4.2 keeps the joint check
// Bonferroni-safe across the ≈ n + n positions tested.
func TestCompositionUniform(t *testing.T) {
	for _, inner := range []string{InnerBasic, InnerALead} {
		for _, n := range []int{8, 20} {
			t.Run(fmt.Sprintf("%s/n=%d", inner, n), func(t *testing.T) {
				e, err := New(n, inner)
				if err != nil {
					t.Fatal(err)
				}
				trials := 4000
				if testing.Short() {
					trials = 1500
				}
				r := e.Runner()
				leaderWins := make([]int, n+1)
				groupWins := make(map[int64]int, n)
				for trial := 0; trial < trials; trial++ {
					ts := int64(sim.Mix64(20180516, uint64(trial)))
					res, err := r.Run(ts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Failed {
						t.Fatalf("trial %d failed: %v", trial, res.Reason)
					}
					leaderWins[res.Output]++
					for _, w := range r.Winners() {
						groupWins[w]++
					}
				}
				const z = 4.2
				sizes := e.GroupSizes()
				pos := int64(1)
				for j, size := range sizes {
					for i := 0; i < size; i++ {
						lo, hi := stats.WilsonInterval(groupWins[pos], trials, z)
						if p := 1 / float64(size); p < lo || p > hi {
							t.Errorf("group %d winner %d: rate %d/%d, Wilson [%f,%f] misses 1/%d",
								j, pos, groupWins[pos], trials, lo, hi, size)
						}
						pos++
					}
				}
				for m := 1; m <= n; m++ {
					lo, hi := stats.WilsonInterval(leaderWins[m], trials, z)
					if p := 1 / float64(n); p < lo || p > hi {
						t.Errorf("leader %d: rate %d/%d, Wilson [%f,%f] misses 1/%d",
							m, leaderWins[m], trials, lo, hi, n)
					}
				}
			})
		}
	}
}

// TestAttackForcesBasic pins the inherited Claim B.1 vulnerability: with
// Basic-LEAD groups, the single delegate-rush adversary forces any target
// with probability 1.
func TestAttackForcesBasic(t *testing.T) {
	for _, n := range []int{4, 9, 64} {
		e, err := New(n, InnerBasic)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int64{1, int64(n/2 + 1), int64(n)} {
			r, err := e.AttackRunner(target)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				res, err := r.Run(int64(sim.Mix64(7, uint64(trial))))
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed || res.Output != target {
					t.Fatalf("n=%d target=%d trial %d: failed=%v output=%d",
						n, target, trial, res.Failed, res.Output)
				}
			}
		}
	}
}

// TestAttackStallsALead pins the composed resilience: with A-LEADuni groups
// the same delegate-rush adversary gains nothing — its withheld messages
// stall the buffered circulation and every trial fails.
func TestAttackStallsALead(t *testing.T) {
	e, err := New(64, InnerALead)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.AttackRunner(5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		res, err := r.Run(int64(sim.Mix64(7, uint64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Failed || res.Reason != sim.FailStall {
			t.Fatalf("trial %d: failed=%v reason=%v, want stall", trial, res.Failed, res.Reason)
		}
	}
}

// TestRunnerDeterminism pins the reproducibility contract: the same trial
// seed yields identical results on a fresh runner and on a recycled one, so
// committee batches shard over the fleet exactly like flat batches.
// n = 50 (7 groups) runs its one group of 8 alone and its six groups of 7
// as one padded lane block; n = 400 (20 groups) runs one whole lane block
// and one padded block of four groups.
func TestRunnerDeterminism(t *testing.T) {
	for _, n := range []int{50, 400} {
		e, err := New(n, InnerALead)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int64{1, 42, -9, 20180516}
		first := make([]sim.Result, len(seeds))
		r := e.Runner()
		for i, s := range seeds {
			if first[i], err = r.Run(s); err != nil {
				t.Fatal(err)
			}
		}
		// Replay on the same (recycled) runner, then on a fresh one.
		for name, rr := range map[string]*Runner{"recycled": r, "fresh": e.Runner()} {
			for i, s := range seeds {
				res, err := rr.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				want := first[i]
				if res.Failed != want.Failed || res.Reason != want.Reason ||
					res.Output != want.Output || res.Delivered != want.Delivered ||
					res.Dropped != want.Dropped || res.Steps != want.Steps {
					t.Fatalf("n=%d: %s runner diverged at seed %d: %+v vs %+v", n, name, s, res, want)
				}
			}
		}
	}
}

// scalarTrial is the reference composition: every group runs alone through
// ring.RunArena, the attacked group under the BasicSingle deviation, then
// the delegate ring. It returns the composed result and the winners of the
// groups folded before the trial ended.
func scalarTrial(t *testing.T, e *Election, trialSeed, target int64) (sim.Result, []int64) {
	t.Helper()
	arena := sim.NewArena()
	atkGroup := -1
	if target != 0 {
		atkGroup = e.GroupOf(target)
	}
	var agg sim.Result
	var winners []int64
	add := func(res sim.Result) {
		agg.Delivered += res.Delivered
		agg.Dropped += res.Dropped
		agg.Steps += res.Steps
	}
	for j, size := range e.sizes {
		spec := ring.Spec{N: size, Protocol: e.proto, Seed: GroupSeed(trialSeed, j)}
		if j == atkGroup {
			dev, err := attacks.BasicSingle{Position: 1}.Plan(size, target-int64(e.starts[j]), spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			spec.Deviation = dev
		}
		res, err := ring.RunArena(spec, arena)
		if err != nil {
			t.Fatal(err)
		}
		add(res)
		if res.Failed {
			agg.Failed, agg.Reason = true, res.Reason
			return agg, winners
		}
		if res.Output < 1 || res.Output > int64(size) {
			agg.Failed, agg.Reason = true, sim.FailMismatch
			return agg, winners
		}
		winners = append(winners, int64(e.starts[j])+res.Output)
	}
	l2 := e.level2Strategies()
	if target != 0 {
		l2[atkGroup] = &sumRush{ring: e.g, valRange: e.n, target: target - 1}
	}
	res, err := sim.NewArena().Run(sim.Config{Strategies: l2, Edges: sim.RingEdges(e.g), Seed: Level2Seed(trialSeed)})
	if err != nil {
		t.Fatal(err)
	}
	add(res)
	switch {
	case res.Failed:
		agg.Failed, agg.Reason = true, res.Reason
	case res.Output < 0 || res.Output >= int64(e.n):
		agg.Failed, agg.Reason = true, sim.FailMismatch
	default:
		agg.Output = winners[e.GroupOf(res.Output+1)]
		agg.Delivered += e.g + e.n
	}
	return agg, winners
}

// TestRunnerMatchesScalarComposition is the committee's differential test
// for lane blocks: a runner's trials must equal the scalar composition of
// per-group ring.RunArena runs, counters, failure and winners included. The
// sizes give one whole block (256), a block beside a lone group of the other
// size (290), and a whole block plus a padded tail of 2 (324), 4 (400) and
// 15 groups (961); 10⁴ runs six whole blocks and a padded tail of 4.
// Attacked targets sit in a group a block would otherwise cover, cutting its
// block short, and in the last group, inside the padded tail.
func TestRunnerMatchesScalarComposition(t *testing.T) {
	for _, inner := range []string{InnerBasic, InnerALead} {
		for _, n := range []int{256, 290, 324, 400, 961, 10000} {
			e, err := New(n, inner)
			if err != nil {
				t.Fatal(err)
			}
			// The first position of a middle group (inside a block's span)
			// and of the last group (in the padded tail from n = 324 on).
			targets := []int64{0, int64(e.starts[e.g/2+1]) + 1, int64(e.starts[e.g-1]) + 1}
			trials := 3
			if n == 10000 {
				trials = 1
			}
			for _, target := range targets {
				t.Run(fmt.Sprintf("%s/n=%d/target=%d", inner, n, target), func(t *testing.T) {
					r := e.Runner()
					if target != 0 {
						if r, err = e.AttackRunner(target); err != nil {
							t.Fatal(err)
						}
					}
					for trial := 0; trial < trials; trial++ {
						seed := int64(sim.Mix64(uint64(n), uint64(trial)))
						got, err := r.Run(seed)
						if err != nil {
							t.Fatal(err)
						}
						want, winners := scalarTrial(t, e, seed, target)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d: runner %+v, scalar %+v", trial, got, want)
						}
						if w := r.Winners()[:len(winners)]; !reflect.DeepEqual(w, winners) {
							t.Fatalf("trial %d: winners %v, scalar %v", trial, w, winners)
						}
					}
				})
			}
		}
	}
}

// TestWarmRunnerAllocBudget pins the honest runner's steady state at zero
// allocations per trial, at sizes whose groups run as lane blocks: whole
// (256), whole plus a padded tail of 4 (400), and six whole plus a padded
// tail of 4 (10⁴). A lane path that allocated per group or per block would
// fail here.
func TestWarmRunnerAllocBudget(t *testing.T) {
	for _, n := range []int{256, 400, 10000} {
		e, err := New(n, InnerALead)
		if err != nil {
			t.Fatal(err)
		}
		if e.Groups() < alead.Lanes {
			t.Fatalf("n=%d has no whole lane block", n)
		}
		r := e.Runner()
		seed := int64(0)
		trial := func() {
			seed++
			if res, err := r.Run(seed); err != nil || res.Failed {
				t.Fatalf("n=%d trial %d: failed=%v err=%v", n, seed, res.Failed, err)
			}
		}
		trial() // warm the arenas: the first trial builds the networks
		if got := testing.AllocsPerRun(10, trial); got > 0 {
			t.Errorf("n=%d: warm runner allocates %.1f allocs per trial, budget 0", n, got)
		}
	}
}

// TestMessagesPerTrial checks the analytic per-trial cost against the
// counters of an actual successful run, and the Θ(n^1.5) scaling claim.
func TestMessagesPerTrial(t *testing.T) {
	for _, inner := range []string{InnerBasic, InnerALead} {
		e, err := New(30, inner)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Runner().Run(11)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("%s: trial failed: %v", inner, res.Reason)
		}
		if res.Delivered != e.MessagesPerTrial() {
			t.Fatalf("%s: delivered %d, analytic %d", inner, res.Delivered, e.MessagesPerTrial())
		}
	}
	big, err := New(10000, InnerALead)
	if err != nil {
		t.Fatal(err)
	}
	if flat := 10000 * 10000; big.MessagesPerTrial()*20 > flat {
		t.Fatalf("composed cost %d is not ≪ flat %d", big.MessagesPerTrial(), flat)
	}
}
