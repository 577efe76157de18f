package attacks

import (
	"context"
	"testing"

	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// runAttack runs one attack batch on every CPU.
func runAttack(spec ring.AttackSpec, trials int) (*ring.Distribution, error) {
	return ring.RunAttackTrials(context.Background(), spec, trials, ring.TrialOptions{})
}

// forceRate measures how often an attack elects its target over trials.
func forceRate(t *testing.T, protocol ring.Protocol, attack ring.Attack, n int, target int64, trials int) float64 {
	t.Helper()
	dist, err := runAttack(ring.AttackSpec{N: n, Protocol: protocol, Attack: attack, Target: target, Seed: 1234}, trials)
	if err != nil {
		t.Fatalf("%s on %s (n=%d): %v", attack.Name(), protocol.Name(), n, err)
	}
	return dist.WinRate(target)
}

func TestBasicSingleControlsOutcome(t *testing.T) {
	for _, n := range []int{4, 9, 32} {
		for _, target := range []int64{1, int64(n / 2), int64(n)} {
			rate := forceRate(t, basiclead.New(), BasicSingle{}, n, target, 20)
			if rate != 1.0 {
				t.Errorf("n=%d target=%d: forced rate %v, want 1.0 (Claim B.1)", n, target, rate)
			}
		}
	}
}

func TestBasicSinglePositionIrrelevant(t *testing.T) {
	const n = 12
	for _, pos := range []sim.ProcID{1, 2, 7, 12} {
		rate := forceRate(t, basiclead.New(), BasicSingle{Position: pos}, n, 5, 10)
		if rate != 1.0 {
			t.Errorf("position %d: forced rate %v, want 1.0", pos, rate)
		}
	}
}

func TestRushingEqualControlsALead(t *testing.T) {
	// Theorem 4.2: k = ⌈√n⌉ equally spaced adversaries force any target.
	for _, n := range []int{16, 36, 100, 225} {
		for _, target := range []int64{1, int64(n)} {
			rate := forceRate(t, alead.New(), Rushing{Place: PlaceEqual}, n, target, 10)
			if rate != 1.0 {
				t.Errorf("n=%d target=%d: forced rate %v, want 1.0 (Theorem 4.2)", n, target, rate)
			}
		}
	}
}

func TestRushingStaggeredControlsALead(t *testing.T) {
	// Theorem 4.3: the cubic attack with k = Θ(n^{1/3}) staggered
	// adversaries forces any target.
	for _, n := range []int{64, 200, 512, 1000} {
		k := MinCubicK(n)
		if k > 2*cubeRoot(n)+2 {
			t.Errorf("n=%d: minimal cubic k=%d exceeds the 2·n^{1/3} bound %d", n, k, 2*cubeRoot(n))
		}
		rate := forceRate(t, alead.New(), Rushing{Place: PlaceStaggered, K: k}, n, 3, 10)
		if rate != 1.0 {
			t.Errorf("n=%d k=%d: forced rate %v, want 1.0 (Theorem 4.3)", n, k, rate)
		}
	}
}

func cubeRoot(n int) int {
	k := 1
	for (k+1)*(k+1)*(k+1) <= n {
		k++
	}
	return k + 1
}

func TestRushingInfeasibleBelowThreshold(t *testing.T) {
	// Well below (2n)^{1/3} no distance plan exists: the attack machinery
	// itself certifies infeasibility (the empirical side of Theorem 5.1's
	// regime and Conjecture 4.7).
	const n = 1000
	for _, k := range []int{2, 3, 5, 8} {
		if _, err := StaggeredDistances(n, k); err == nil {
			total := k + k*(k-1) + k*(k-1)*(k-1)/2
			if total < n {
				t.Errorf("k=%d: plan feasible but capacity %d < n=%d", k, total, n)
			}
		}
	}
	if _, err := EqualDistances(n, 8); err == nil {
		t.Error("equal placement with k=8 ≪ √1000 should be infeasible (segments exceed k−1)")
	}
}

func TestStaggeredDistancesShape(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{64, 8}, {200, 10}, {512, 16}, {1000, 13}} {
		dists, err := StaggeredDistances(tc.n, tc.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if err := validateRushingDistances(dists, tc.n, tc.k); err != nil {
			t.Fatalf("n=%d k=%d: invalid plan: %v", tc.n, tc.k, err)
		}
		for i, d := range dists {
			if d > dists[0] {
				t.Errorf("n=%d k=%d: l_%d=%d exceeds l_1=%d; Lemma 4.4 wants l_1 maximal",
					tc.n, tc.k, i+1, d, dists[0])
			}
		}
	}
}

func TestRandomizedControlsALeadWHP(t *testing.T) {
	// Theorem C.1: randomly located adversaries with p = √(8 ln n / n)
	// control the outcome with high probability. Failures are allowed
	// within δ; we require a healthy majority of successes.
	const (
		n      = 400
		trials = 40
	)
	rate := forceRate(t, alead.New(), Randomized{}, n, 7, trials)
	if rate < 0.8 {
		t.Errorf("forced rate %v, want ≥ 0.8 (Theorem C.1 says 1−δ)", rate)
	}
}

func TestRandomizedNeverElectsOtherLeader(t *testing.T) {
	// Even when the randomized attack fails, it must fail to FAIL, never
	// hand the election to a different leader.
	const n = 144
	dist, err := runAttack(ring.AttackSpec{N: n, Protocol: alead.New(), Attack: Randomized{}, Target: 9, Seed: 99}, 60)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= n; j++ {
		if int64(j) != 9 && dist.Counts[j] != 0 {
			t.Errorf("leader %d elected %d times under attack targeting 9", j, dist.Counts[j])
		}
	}
}

func TestHalfRingControlsALead(t *testing.T) {
	// The ⌈n/2⌉ consecutive coalition forces any outcome: the executable
	// face of the simulated-tree impossibility (Theorem 7.2).
	for _, n := range []int{6, 7, 16, 33, 100} {
		rate := forceRate(t, alead.New(), HalfRing{}, n, 2, 10)
		if rate != 1.0 {
			t.Errorf("n=%d: forced rate %v, want 1.0", n, rate)
		}
	}
}

func TestHalfRingRejectsSubHalf(t *testing.T) {
	// Claim D.1 regime: consecutive coalitions below n/2 are provably
	// powerless against A-LEADuni; the attack must refuse to plan there.
	if _, err := (HalfRing{K: 15}).Plan(40, 1, 0); err == nil {
		t.Error("half-ring planned with k=15 < n/2=20; Claim D.1 forbids any gain")
	}
}

func TestConsecutiveSubHalfCoalitionPowerless(t *testing.T) {
	// Direct empirical check of Claim D.1: a consecutive coalition of
	// size k < n/2 running the strongest strategy we have (the half-ring
	// machinery, forced) cannot elect its target more often than chance.
	// The exit member's budget runs dry before it learns the arc sum, so
	// executions fail rather than elect the target.
	const (
		n      = 20
		k      = 8
		target = 4
	)
	coalition := make([]sim.ProcID, k)
	dev := &ring.Deviation{Strategies: make(map[sim.ProcID]sim.Strategy, k)}
	for i := 0; i < k; i++ {
		pos := sim.ProcID(i + 2)
		coalition[i] = pos
		if i < k-1 {
			dev.Strategies[pos] = &blockPipe{quota: n, target: target}
		} else {
			dev.Strategies[pos] = &halfRingExit{n: n, k: k, target: target, targetSum: ring.SumForLeader(target, n)}
		}
	}
	dev.Coalition = coalition
	wins := 0
	for seed := int64(0); seed < 40; seed++ {
		res, err := ring.Run(ring.Spec{N: n, Protocol: alead.New(), Deviation: dev, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Failed && res.Output == target {
			wins++
		}
	}
	if wins > 8 { // 40 trials · 1/20 chance ≈ 2 expected wins
		t.Errorf("sub-half consecutive coalition forced target %d/40 times; Claim D.1 says ≈ 1/n", wins)
	}
}

func TestRushingSyncGapIsQuadratic(t *testing.T) {
	// Section 6's motivation: the cubic attack drives the send-count gap
	// |Sent_i − Sent_j| to Θ(k²), which is what PhaseAsyncLead's phase
	// validation eliminates.
	const n = 512
	k := MinCubicK(n)
	attack := Rushing{Place: PlaceStaggered, K: k}
	dev, err := attack.Plan(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gap := &maxGapTracer{n: n, coalition: dev.Coalition}
	res, err := ring.Run(ring.Spec{N: n, Protocol: alead.New(), Deviation: dev, Seed: 5, Tracer: gap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("attack failed: %v", res.Reason)
	}
	if gap.max < k*(k-1)/4 {
		t.Errorf("max adversary send gap %d; expected Ω(k²) ≈ %d", gap.max, k*k)
	}
	if gap.max > 2*k*k {
		t.Errorf("max adversary send gap %d exceeds Lemma D.5's 2k² = %d on a non-failing run", gap.max, 2*k*k)
	}
}

// maxGapTracer tracks the maximal spread of send counts across coalition
// members over the whole execution.
type maxGapTracer struct {
	n         int
	coalition []sim.ProcID
	sent      map[sim.ProcID]int
	max       int
}

func (g *maxGapTracer) OnSend(from sim.ProcID, idx int, _ sim.ProcID, _ int64) {
	if g.sent == nil {
		g.sent = make(map[sim.ProcID]int, len(g.coalition))
		for _, p := range g.coalition {
			g.sent[p] = 0
		}
	}
	if _, ok := g.sent[from]; !ok {
		return
	}
	g.sent[from] = idx
	lo, hi := int(^uint(0)>>1), 0
	for _, s := range g.sent {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi-lo > g.max {
		g.max = hi - lo
	}
}

func (g *maxGapTracer) OnDeliver(sim.ProcID, int, sim.ProcID, int64) {}
func (g *maxGapTracer) OnTerminate(sim.ProcID, int64, bool)          {}

func TestWakeupRushingStillControls(t *testing.T) {
	// Appendix H's remark, executed: the cubic attack survives the
	// wake-up extension — the coalition plays the id exchange honestly
	// and rushes the election phase as before.
	for _, n := range []int{64, 216} {
		attack := WakeupRushing{Inner: Rushing{Place: PlaceStaggered}}
		proto := attack.Protocol(n)
		dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: attack, Target: 5, Seed: 21}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if rate := dist.WinRate(5); rate != 1.0 {
			t.Errorf("n=%d: forced rate %v, want 1.0 (fails: %v)", n, rate, dist.FailCounts)
		}
	}
}

func TestWakeupHonestBaselineUnbiased(t *testing.T) {
	// Control for the wake-up attack test: without the deviation the
	// combined protocol is uniform.
	attack := WakeupRushing{}
	dist, err := ring.Trials(ring.Spec{N: 64, Protocol: attack.Protocol(64), Seed: 3}, 320)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Failures() != 0 {
		t.Fatalf("%d honest trials failed", dist.Failures())
	}
	if dist.Counts[5] > 20 { // 320/64 = 5 expected
		t.Errorf("target won %d/320 honestly", dist.Counts[5])
	}
}
