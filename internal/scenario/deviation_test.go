package scenario

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/attacks"
	"repro/internal/protocols/alead"
	"repro/internal/ring"
)

// TestDeviationDifferentialMatchesScenarioRun is the refactor pin: for
// every attack scenario, the equilibrium sweep restricted to the scenario's
// own registered deviation must reproduce the scenario's run — and hence
// direct ring.RunAttackTrials batches — byte-identically: same seed ⇒
// same Distribution, counter for counter.
func TestDeviationDifferentialMatchesScenarioRun(t *testing.T) {
	const seed, trials = 20180516, 24
	ctx := context.Background()
	opts := Opts{Trials: trials}
	checked := 0
	for _, s := range All() {
		if s.Attack == "" {
			continue
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			cand, ok := s.RegisteredDeviation(opts)
			if !ok {
				t.Fatalf("attack scenario %s has no registered deviation", s.Name)
			}
			want, err := s.RunOpts(ctx, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.RunDeviation(ctx, seed, cand, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.Dist) {
				t.Errorf("restricted sweep diverges from scenario run:\n got %+v\nwant %+v", got, want.Dist)
			}
		})
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d attack scenarios checked, want ≥ 10", checked)
	}
}

// TestDeviationMatchesDirectAttackTrials pins the family planner against a
// direct ring.RunAttackTrials batch built from the attacks package, bypassing
// the catalog entirely.
func TestDeviationMatchesDirectAttackTrials(t *testing.T) {
	const seed, trials, n = 99, 32, 32
	s := MustFind("ring/a-lead/attack=rushing-equal")
	cand := DeviationCandidate{Family: "rushing", Mode: "equal", K: 6, Target: 3}
	got, err := s.RunDeviation(context.Background(), seed, cand, Opts{N: n, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	spec := ring.AttackSpec{N: n, Protocol: alead.New(), Attack: attacks.Rushing{Place: attacks.PlaceEqual, K: 6}, Target: 3, Seed: seed}
	want, err := ring.RunAttackTrials(context.Background(), spec, trials, ring.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("family-planned batch diverges from direct RunAttackTrials:\n got %+v\nwant %+v", got, want)
	}
}

// TestIdentityDeviationIsHonestBaseline checks the identity candidate of a
// ring attack scenario reproduces the underlying protocol's honest batch.
func TestIdentityDeviationIsHonestBaseline(t *testing.T) {
	const seed, trials, n = 5, 48, 32
	s := MustFind("ring/a-lead/attack=rushing-staggered")
	got, err := s.RunDeviation(context.Background(), seed, DeviationCandidate{Family: FamilyIdentity}, Opts{N: n, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ring.Trials(ring.Spec{N: n, Protocol: alead.New(), Seed: seed}, trials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("identity deviation diverges from honest Trials:\n got %+v\nwant %+v", got, want)
	}
}

// TestDeviationSpaceShape checks the space enumeration invariants: every
// sweep starts at the identity (where runnable), honest sweeps respect the
// resilience bound, and attack sweeps cover their own registered deviation.
func TestDeviationSpaceShape(t *testing.T) {
	for _, s := range All() {
		s := s
		space := s.DeviationSpace(Opts{}, 0, nil)
		if len(space) == 0 {
			t.Errorf("%s: empty deviation space", s.Name)
			continue
		}
		hasIdentity := space[0].Family == FamilyIdentity
		if (s.Attack == "" || s.Topology == "ring" || s.Topology == "wakeup") && !hasIdentity {
			t.Errorf("%s: space does not start with the identity", s.Name)
		}
		if s.Attack == "" {
			bound := s.ResilientK(s.N)
			for _, c := range space[1:] {
				if c.K > bound {
					t.Errorf("%s: honest sweep candidate %s exceeds resilience bound %d", s.Name, c, bound)
				}
				if c.Family == FamilyIdentity || c.Family == FamilySelf {
					t.Errorf("%s: unexpected pseudo-family candidate %s", s.Name, c)
				}
			}
			continue
		}
		// Attack scenarios: the registered family/mode/target must appear.
		reg, _ := s.RegisteredDeviation(Opts{})
		found := false
		for _, c := range space {
			// Scenarios without a registered target (the untargeted
			// self-family adversaries) match on family alone: the sweep
			// picks its own targets for them.
			if c.Family == reg.Family && c.Mode == reg.Mode && (reg.Target == 0 || c.Target == reg.Target) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: space misses the registered deviation %s", s.Name, reg)
		}
	}
}

// TestFamilyRegistry checks the family catalog's integrity: names sorted,
// plans buildable at representative sizes, and the resilience table exact
// at the paper's thresholds.
func TestFamilyRegistry(t *testing.T) {
	fams := Families()
	if len(fams) < 7 {
		t.Fatalf("only %d families registered", len(fams))
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Errorf("families out of order: %s before %s", fams[i-1].Name, fams[i].Name)
		}
	}
	if _, ok := FindFamily("rushing"); !ok {
		t.Error("rushing family missing")
	}
	if _, ok := FindFamily("no-such-family"); ok {
		t.Error("FindFamily invented a family")
	}
	// Resilience floors: a-lead n^{1/4}, phase-lead √n/10, in exact
	// integer arithmetic.
	alead := MustFind("ring/a-lead/fifo")
	for n, want := range map[int]int{15: 1, 16: 2, 80: 2, 81: 3, 256: 4} {
		if got := alead.ResilientK(n); got != want {
			t.Errorf("a-lead ResilientK(%d) = %d, want %d", n, got, want)
		}
	}
	phase := MustFind("ring/phase-lead/fifo")
	for n, want := range map[int]int{99: 0, 100: 1, 399: 1, 400: 2} {
		if got := phase.ResilientK(n); got != want {
			t.Errorf("phase-lead ResilientK(%d) = %d, want %d", n, got, want)
		}
	}
}
