package popproto

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestNewRunnerValidation(t *testing.T) {
	bad := []Config{
		{N: 1},
		{N: 8, K: -1},
		{N: 8, K: 9},
		{N: 8, K: 1},             // coalition without a target
		{N: 8, K: 1, Target: 9},  // target off the ring
		{N: 8, K: 1, Target: -1}, // target off the ring
		{N: 8, Window: -1},
		{N: 8, MaxSteps: -1},
		{N: 8, Start: []int{0}},     // wrong length
		{N: 2, Start: []int{0, 2}},  // label out of range
		{N: 2, Start: []int{0, -1}}, // label out of range
		{N: 4, K: 4, Target: 0, Start: []int{0, 0}}, // first error wins, still an error
	}
	for _, cfg := range bad {
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("NewRunner(%+v) accepted an invalid config", cfg)
		}
	}
	r, err := NewRunner(Config{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Window() != 2*8 || r.MaxSteps() != 64*8*8*8 {
		t.Errorf("defaults: window=%d maxSteps=%d", r.Window(), r.MaxSteps())
	}
	if _, err := NewRunner(Config{N: 8, K: 8, Target: 3}); err != nil {
		t.Errorf("full-ring coalition rejected: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	r1, err := NewRunner(Config{N: 12})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(Config{N: 12})
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for seed := int64(1); seed <= 64; seed++ {
		a, b := r1.Run(seed), r2.Run(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v vs %+v", seed, a, b)
		}
		// Runner state must not leak across trials: replay on the same
		// runner reproduces the trial too.
		if c := r1.Run(seed); !reflect.DeepEqual(a, c) {
			t.Fatalf("seed %d replay on a used runner: %+v vs %+v", seed, a, c)
		}
		if !reflect.DeepEqual(a, r1.Run(seed+1000)) {
			differ = true
		}
	}
	if !differ {
		t.Error("all seeds produced identical trials")
	}
}

// TestHonestUniform checks the exact-uniformity claim: the honest election
// from the symmetric all-zero start is uniform over positions by rotation
// symmetry, so a χ² test against the analytic distribution must pass
// comfortably, with zero failed trials.
func TestHonestUniform(t *testing.T) {
	const n, trials = 8, 4000
	r, err := NewRunner(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		res := r.Run(int64(i))
		if res.Failed {
			t.Fatalf("trial %d failed: %v", i, res.Reason)
		}
		counts[res.Output-1]++
	}
	analytic := make([]int, n)
	for i := range analytic {
		analytic[i] = trials / n
	}
	chi2, p, err := stats.ChiSquareHomogeneity(counts, analytic)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-6 {
		t.Errorf("honest leader distribution not uniform: χ²=%.2f p=%g counts=%v", chi2, p, counts)
	}
}

// TestSelfStabilizes drives the election from adversarial initial
// labelings — the configurations a self-stabilizing protocol must recover
// from — and checks every trial still converges to a perfect labeling.
func TestSelfStabilizes(t *testing.T) {
	const n = 10
	starts := [][]int{
		nil,                            // honest symmetric start
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, // reversed wheel
		{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}, // two half-frames
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, // no label-0 agent at all
		{0, 2, 4, 6, 8, 1, 3, 5, 7, 9}, // interleaved junk
	}
	randomStart := make([]int, n)
	rng := sim.NewStream(99, 1)
	for i := range randomStart {
		randomStart[i] = rng.Intn(n)
	}
	starts = append(starts, randomStart)
	for si, start := range starts {
		r, err := NewRunner(Config{N: n, Start: start})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 50; seed++ {
			res := r.Run(seed)
			if res.Failed {
				t.Fatalf("start %d seed %d did not stabilize: %v", si, seed, res.Reason)
			}
			if res.Output < 1 || res.Output > n {
				t.Fatalf("start %d seed %d elected position %d outside [1,%d]", si, seed, res.Output, n)
			}
			if pos, ok := r.perfect(); !ok || int64(pos) != res.Output {
				t.Fatalf("start %d seed %d: detector fired on a non-perfect labeling (pos=%d ok=%v out=%d)",
					si, seed, pos, ok, res.Output)
			}
		}
	}
}

// TestCoalitionBiasForcesTarget checks the deviation family's power: the
// pinned frame makes the target the only reachable fixed point, so every
// trial elects it, at any coalition size.
func TestCoalitionBiasForcesTarget(t *testing.T) {
	const n = 8
	for _, k := range []int{1, 3, n} {
		for _, target := range []int{1, 5, n} {
			r, err := NewRunner(Config{N: n, K: k, Target: target})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 100; seed++ {
				res := r.Run(seed)
				if res.Failed {
					t.Fatalf("k=%d target=%d seed=%d failed: %v", k, target, seed, res.Reason)
				}
				if res.Output != int64(target) {
					t.Fatalf("k=%d target=%d seed=%d elected %d", k, target, seed, res.Output)
				}
			}
		}
	}
}

// TestPerfectClosure pins the closure predicate on hand-built labelings.
func TestPerfectClosure(t *testing.T) {
	r, err := NewRunner(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		labels []int
		pos    int
		ok     bool
	}{
		{[]int{0, 1, 2, 3, 4}, 1, true},
		{[]int{3, 4, 0, 1, 2}, 3, true},
		{[]int{1, 2, 3, 4, 0}, 5, true},
		{[]int{0, 0, 0, 0, 0}, 0, false},
		{[]int{0, 1, 2, 3, 3}, 0, false},
		{[]int{0, 1, 2, 4, 3}, 0, false},
	}
	for _, c := range cases {
		copy(r.labels, c.labels)
		pos, ok := r.perfect()
		if pos != c.pos || ok != c.ok {
			t.Errorf("perfect(%v) = (%d, %v), want (%d, %v)", c.labels, pos, ok, c.pos, c.ok)
		}
	}
}

// TestStepLimit checks the budget surfaces as the run-forever failure.
func TestStepLimit(t *testing.T) {
	// A 2-agent coalition pinning two different frames can never reach a
	// perfect labeling: the election must exhaust its budget.
	r, err := NewRunner(Config{N: 4, K: 1, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.pinned[2] = 0 // a second stubborn agent pinning a conflicting frame
	r.maxSteps = 2000
	res := r.Run(7)
	if !res.Failed || res.Reason != sim.FailStepLimit {
		t.Fatalf("conflicting pins should exhaust the budget, got %+v", res)
	}
	if res.Steps != 2000 || res.Delivered != 2000 {
		t.Errorf("failed trial should account the full budget, got %+v", res)
	}
}

// TestConvergenceBudget documents the budget headroom: across thousands of
// trials at several sizes the slowest observed trial stays far under the
// 64·n³ default, so the step-limit tail is negligible in catalog runs.
func TestConvergenceBudget(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 400
	}
	for _, n := range []int{8, 16} {
		r, err := NewRunner(Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for i := 0; i < trials; i++ {
			res := r.Run(int64(i))
			if res.Failed {
				t.Fatalf("n=%d trial %d failed: %v", n, i, res.Reason)
			}
			if res.Steps > max {
				max = res.Steps
			}
		}
		if max > r.MaxSteps()/8 {
			t.Errorf("n=%d: slowest trial used %d of %d budget — headroom eroded", n, max, r.MaxSteps())
		}
	}
}
