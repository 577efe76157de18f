package repro

import (
	"context"
	"math/rand"
	"testing"
)

// TestImpossibilityAPISurface pins the exported Section 7 / Appendix F
// wrappers: the XOR protocol's second-mover dictatorship, graph
// constructors, and the simulated-tree decomposition round-trip.
func TestImpossibilityAPISurface(t *testing.T) {
	v := ClassifyTwoParty(XORCoinToss())
	if p, ok := v.Dictator(); !ok || p != PartyB {
		t.Fatalf("XOR exchange dictator = %v ok %v, want second mover", p, ok)
	}

	ringG, err := RingGraph(6)
	if err != nil {
		t.Fatal(err)
	}
	part, err := HalfSplit(ringG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySimulatedTree(ringG, part, 3); err != nil {
		t.Fatalf("half split of C6 is not a 3-simulated tree: %v", err)
	}
	k, _, err := MinSimulatedTreeK(ringG)
	if err != nil || k != 3 {
		t.Fatalf("MinSimulatedTreeK(C6) = %d err %v, want 3", k, err)
	}

	if _, err := GridGraph(2, 3); err != nil {
		t.Fatal(err)
	}
	if rec := NewRecorder(4); rec == nil {
		t.Fatal("NewRecorder returned nil")
	}
}

// TestReferenceScenarioAPISurface pins the exported reference-scenario
// constructors: trees, the complete graph with Shamir sharing, and the
// synchronous lock-step model.
func TestReferenceScenarioAPISurface(t *testing.T) {
	path, err := PathGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTreeElection(path, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := StarGraph(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompleteElection(6, 0); err != nil {
		t.Fatal(err)
	}

	procs, err := NewSynchronousCompleteElection(5, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSynchronous(procs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Output < 1 || res.Output > 5 {
		t.Fatalf("synchronous election: failed %v output %d", res.Failed, res.Output)
	}

	rng := rand.New(rand.NewSource(7))
	shares, err := ShamirSplit(12345, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := ShamirReconstruct(shares[:3])
	if err != nil || secret != 12345 {
		t.Fatalf("Shamir round trip = %d err %v", secret, err)
	}
}

// TestConstructorAPISurface pins every exported protocol and attack
// constructor: each yields a usable, named value.
func TestConstructorAPISurface(t *testing.T) {
	for _, p := range []Protocol{
		NewBasicLead(), NewSumPhaseLead(), NewChangRoberts(), NewPeterson(),
	} {
		if p.Name() == "" {
			t.Fatal("protocol with empty name")
		}
	}
	phase := NewPhaseAsyncLeadWithParams(PhaseParams{L: 4, M: 32, FuncSeed: 1})
	if phase.Name() == "" {
		t.Fatal("phase protocol with empty name")
	}
	for _, a := range []Attack{
		NewBasicSingleAttack(), NewCubicAttack(0), NewRandomizedAttack(),
		NewHalfRingAttack(), NewSumPhaseAttack(),
		NewPhaseRushingAttack(phase, 2), NewPhaseChaseAttack(phase, 2),
	} {
		if a.Name() == "" {
			t.Fatal("attack with empty name")
		}
	}

	// The spec-struct entry point is the attack path.
	spec := AttackSpec{N: 8, Protocol: NewBasicLead(), Attack: NewBasicSingleAttack(), Target: 1, Seed: 3}
	dist, err := RunAttackTrials(context.Background(), spec, 16, TrialOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Trials != 16 {
		t.Fatalf("attack batch ran %d trials, want 16", dist.Trials)
	}
}

// TestCertifyAllCoversCatalog pins the catalog-wide certification entry
// point at a tiny budget: one certificate per registered scenario.
func TestCertifyAllCoversCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the whole catalog")
	}
	certs, err := CertifyAll(context.Background(), 11, CertifyOptions{
		Trials: 8, MaxK: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != len(Scenarios()) {
		t.Fatalf("CertifyAll returned %d certificates for %d scenarios", len(certs), len(Scenarios()))
	}
}
