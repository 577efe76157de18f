package attacks

import (
	"testing"

	"repro/internal/protocols/phaselead"
	"repro/internal/protocols/sumphase"
	"repro/internal/ring"
)

func TestPhaseRushingControlsPhaseLead(t *testing.T) {
	// Section 6 tightness remark: k = √n+3 equally spaced adversaries
	// control PhaseAsyncLead. Every segment is shorter than min(k, l),
	// so every adversary has informed free slots to steer its segment.
	for _, n := range []int{100, 144, 400} {
		proto := phaselead.NewDefault()
		attack := PhaseRushing{Protocol: proto}
		for _, target := range []int64{1, int64(n / 3)} {
			dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: attack, Target: target, Seed: 42}, 10)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if rate := dist.WinRate(target); rate != 1.0 {
				t.Errorf("n=%d target=%d: forced rate %v, want 1.0 (fails: %v)",
					n, target, rate, dist.FailCounts)
			}
		}
	}
}

func TestPhaseRushingInfeasibleAtResilientK(t *testing.T) {
	// Theorem 6.1 regime: for k ≤ √n/10 some segment is at least
	// min(k, l) long, so no coalition member can steer — the planner
	// certifies this.
	const n = 400 // √n/10 = 2
	attack := PhaseRushing{Protocol: phaselead.NewDefault(), K: 2}
	if _, err := attack.Plan(n, 1, 0); err == nil {
		t.Fatal("planned a steering attack with k=2 ≤ √n/10; Theorem 6.1 forbids it")
	}
	// Even well above √n/10, steering needs segments < k: at k = √n/2
	// the segments are ≈ 2√n ≫ k.
	attack.K = SqrtK(n) / 2
	if _, err := attack.Plan(n, 1, 0); err == nil {
		t.Fatal("planned a steering attack with k=√n/2; segments exceed k")
	}
}

func TestPhaseRushingNoSteerFailsUnderRandomFunction(t *testing.T) {
	// Rushing without steering keeps every per-segment validation happy,
	// but under f each segment reconstructs a differently-shifted input:
	// outputs disagree and the outcome is FAIL. (Under A-LEADuni's sum
	// output the very same stream shifts are invisible — this measures
	// exactly what the random function buys.)
	const (
		n      = 64
		k      = 4
		target = int64(7)
		trials = 100
	)
	proto := phaselead.NewDefault()
	attack := PhaseRushing{Protocol: proto, K: k, Mode: PhaseNoSteer}
	dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: attack, Target: target, Seed: 7}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Counts[target] > 8 { // ≈ trials/n expected even on valid runs
		t.Errorf("target won %d/%d under no-steer rushing", dist.Counts[target], trials)
	}
	if mismatches := dist.FailCounts[2]; mismatches < trials/2 {
		t.Errorf("only %d/%d executions ended in mismatch; shifted inputs should disagree",
			mismatches, trials)
	}
}

func TestPhaseRushingChaseSavesValidityNotBias(t *testing.T) {
	// Theorem 6.1's mechanism, exhibited: with one unsteerable long
	// segment, the coalition can keep every execution valid by chasing
	// the long segment's output, but that output is uniform — the
	// election stays unbiased.
	const (
		n      = 121
		k      = 8
		target = int64(5)
		trials = 240
	)
	proto := phaselead.NewDefault()
	attack := PhaseRushing{Protocol: proto, K: k, Mode: PhaseChase}
	dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: attack, Target: target, Seed: 17}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if rate := dist.FailureRate(); rate > 0.05 {
		t.Errorf("chase mode failed %.2f of executions; expected ≈ 0", rate)
	}
	if dist.Counts[target] > 12 { // 240/121 ≈ 2 expected
		t.Errorf("target won %d/%d under chase; chase must not bias", dist.Counts[target], trials)
	}
	// The chased outcome should spread over many leaders, not collapse.
	distinct := 0
	for j := 1; j <= n; j++ {
		if dist.Counts[j] > 0 {
			distinct++
		}
	}
	if distinct < n/3 {
		t.Errorf("only %d distinct leaders over %d valid chase runs; expected a broad spread",
			distinct, trials-dist.Failures())
	}
}

func TestPhaseRushingTransition(t *testing.T) {
	// The steering feasibility transition sits near k ≈ √n: equal
	// spacing gives segments ≈ n/k, steerable iff n/k < k.
	const n = 256
	feasible := func(k int) bool {
		_, err := PhaseRushing{Protocol: phaselead.NewDefault(), K: k}.Plan(n, 1, 0)
		return err == nil
	}
	if feasible(8) { // segments ≈ 31 ≥ 8
		t.Error("k=8 should not be steerable at n=256")
	}
	if !feasible(SqrtK(n) + 3) {
		t.Error("k=√n+3 should be steerable at n=256")
	}
}

func TestSumPhaseAttackControlsSumProtocol(t *testing.T) {
	// Appendix E.4: four colluders control the sum-output phase protocol.
	for _, n := range []int{24, 60, 121, 400} {
		proto := sumphase.New()
		dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: SumPhase{}, Target: 5, Seed: 3}, 10)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rate := dist.WinRate(5); rate != 1.0 {
			t.Errorf("n=%d: forced rate %v, want 1.0 (fails: %v)", n, rate, dist.FailCounts)
		}
	}
}

func TestSumPhaseAttackFailsAgainstRandomFunction(t *testing.T) {
	// The same k=4 deviation aimed at PhaseAsyncLead (sum replaced by f)
	// is powerless: partial sums of f's input are useless, so the
	// coalition's injected streams cannot be steered to a common output.
	const (
		n      = 121
		target = int64(5)
		trials = 120
	)
	proto := phaselead.NewDefault()
	dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: SumPhase{}, Target: target, Seed: 11}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Counts[target] > 8 { // ≈1 expected by chance
		t.Errorf("sum attack forced the random-function protocol %d/%d times",
			dist.Counts[target], trials)
	}
}

func TestPhaseRushingBestEffortBelowThreshold(t *testing.T) {
	// Best-effort at sub-threshold k: no segment is steerable, the
	// shifted reconstructions disagree, and the coalition gains nothing —
	// the target is never forced.
	const (
		n      = 100
		k      = 3
		target = int64(9)
		trials = 120
	)
	proto := phaselead.NewDefault()
	attack := PhaseRushing{Protocol: proto, K: k, Mode: PhaseBestEffort}
	dist, err := runAttack(ring.AttackSpec{N: n, Protocol: proto, Attack: attack, Target: target, Seed: 13}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Counts[target] > 8 { // ≈ 1 expected by chance
		t.Errorf("target won %d/%d at sub-threshold k; Theorem 6.1 forbids bias",
			dist.Counts[target], trials)
	}
}
