package attacks

import (
	"testing"

	"repro/internal/protocols/alead"
	"repro/internal/ring"
)

// TestAbortForcesFailNeverProfits checks the destructive control: every
// trial under an abort coalition fails, so the coalition's target never
// wins — gain is strictly negative.
func TestAbortForcesFailNeverProfits(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		dist, err := runAttack(ring.AttackSpec{N: 16, Protocol: alead.New(), Attack: Abort{K: k}, Target: 2, Seed: 7}, 50)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := dist.Failures(); got != dist.Trials {
			t.Errorf("k=%d: %d/%d trials failed, want all", k, got, dist.Trials)
		}
		if dist.WinRate(2) != 0 {
			t.Errorf("k=%d: target won %v of trials under abort", k, dist.WinRate(2))
		}
	}
}

// TestAbortPlanValidation checks coalition-size bounds.
func TestAbortPlanValidation(t *testing.T) {
	if _, err := (Abort{K: 16}).Plan(16, 2, 0); err == nil {
		t.Error("k = n should be rejected")
	}
	if _, err := (Abort{}).Plan(8, 9, 0); err == nil {
		t.Error("out-of-range target should be rejected")
	}
	dev, err := Abort{K: 3}.Plan(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Validate(8); err != nil {
		t.Fatal(err)
	}
	if len(dev.Coalition) != 3 {
		t.Errorf("coalition size %d, want 3", len(dev.Coalition))
	}
}
