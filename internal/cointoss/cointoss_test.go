package cointoss

import (
	"context"
	"math"
	"testing"

	"repro/internal/attacks"
	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
	"repro/internal/sim"
)

func TestHonestCoinIsFair(t *testing.T) {
	toss := ProtocolTosser(16, alead.New(), 5)
	s, err := TrialsOpts(context.Background(), toss, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Fails != 0 {
		t.Fatalf("%d honest tosses failed", s.Fails)
	}
	if b := s.Bias(); b > 0.04 {
		t.Errorf("honest coin bias %v over 2000 tosses", b)
	}
}

func TestAttackedElectionBiasesCoin(t *testing.T) {
	// A fully controlled election (Claim B.1) yields a fully controlled
	// coin, saturating Theorem 8.1's ½·n·ε bound.
	const n = 16
	attack := attacks.BasicSingle{}
	toss := func(instance int, arena *sim.Arena) (int, error) {
		seed := int64(sim.Mix64(77, uint64(instance)))
		dev, err := attack.Plan(n, 4, seed) // leader 4 → low bit 1
		if err != nil {
			return TossFail, err
		}
		return TossArena(ring.Spec{N: n, Protocol: basiclead.New(), Deviation: dev, Seed: seed}, arena)
	}
	s, err := TrialsOpts(context.Background(), toss, 200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Ones != 200 {
		t.Errorf("forced coin landed 1 only %d/200 times", s.Ones)
	}
	if got, want := s.Bias(), 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("bias %v, want %v", got, want)
	}
	// ε = 1−1/n for the attacked election; the bound must dominate.
	if bound := CoinBiasBound(n, 1-1.0/n); bound < s.Bias() {
		t.Errorf("Theorem 8.1 bound %v below measured bias %v", bound, s.Bias())
	}
}

func TestElectViaCoinsUniform(t *testing.T) {
	// coin→FLE with honest coins: the composite election is uniform.
	const n = 8 // 3 coin instances per election
	mk := func(trial int) Tosser {
		return ProtocolTosser(n, alead.New(), int64(sim.Mix64(11, uint64(trial))))
	}
	dist, err := ElectTrialsOpts(context.Background(), n, mk, 1600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Failures() != 0 {
		t.Fatalf("%d composite elections failed", dist.Failures())
	}
	want := 1600.0 / n
	for j := 1; j <= n; j++ {
		if got := float64(dist.Counts[j]); got < want*0.6 || got > want*1.4 {
			t.Errorf("leader %d elected %v times, want ≈ %v", j, got, want)
		}
	}
}

func TestElectRejectsNonPowerOfTwo(t *testing.T) {
	if _, _, err := Elect(6, func(int, *sim.Arena) (int, error) { return 0, nil }, nil); err == nil {
		t.Error("n=6 accepted")
	}
	if _, _, err := Elect(1, func(int, *sim.Arena) (int, error) { return 0, nil }, nil); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestElectPropagatesFailure(t *testing.T) {
	leader, ok, err := Elect(8, func(i int, _ *sim.Arena) (int, error) {
		if i == 1 {
			return TossFail, nil
		}
		return 1, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok || leader != 0 {
		t.Errorf("failed toss did not fail the election: leader=%d ok=%v", leader, ok)
	}
}

func TestElectIndexing(t *testing.T) {
	// Bits are MSB-first: tosses (1,0,1) over n=8 elect leader 6.
	bits := []int{1, 0, 1}
	leader, ok, err := Elect(8, func(i int, _ *sim.Arena) (int, error) { return bits[i], nil }, nil)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if leader != 6 {
		t.Errorf("leader = %d, want 6", leader)
	}
}

func TestElectionBiasBound(t *testing.T) {
	got, err := ElectionBiasBound(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.125) > 1e-12 {
		t.Errorf("fair-coin bound %v, want 1/8", got)
	}
	got, err = ElectionBiasBound(8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("fully biased bound %v, want 1", got)
	}
}
