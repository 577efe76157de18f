package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attacks"
	"repro/internal/protocols/alead"
	"repro/internal/ring"
)

// TestRegistryInvariants pins the catalog's breadth: the matrix must span
// at least 25 scenarios, 4 topologies, and every shipped attack.
func TestRegistryInvariants(t *testing.T) {
	all := All()
	if len(all) < 25 {
		t.Fatalf("registry holds %d scenarios, want ≥ 25", len(all))
	}
	topologies := map[string]bool{}
	attackSlugs := map[string]bool{}
	prev := ""
	for _, s := range all {
		if s.Name <= prev {
			t.Errorf("registry not sorted or duplicate: %q after %q", s.Name, prev)
		}
		prev = s.Name
		topologies[s.Topology] = true
		if s.Attack != "" {
			attackSlugs[s.Attack] = true
			if !strings.Contains(s.Name, "attack="+s.Attack) {
				t.Errorf("%s: name does not carry attack slug %q", s.Name, s.Attack)
			}
		}
		if s.MinN < 2 || s.N < s.MinN {
			t.Errorf("%s: inconsistent sizes N=%d MinN=%d", s.Name, s.N, s.MinN)
		}
		d := s.Describe()
		if d.Name != s.Name || d.Topology != s.Topology || d.Uniform != s.Uniform {
			t.Errorf("%s: Describe() disagrees with the scenario", s.Name)
		}
	}
	if len(topologies) < 4 {
		t.Errorf("registry spans %d topologies (%v), want ≥ 4", len(topologies), topologies)
	}
	// Every deviation shipped in internal/attacks must be represented.
	for _, want := range []string{
		"basic-single", "rushing-equal", "rushing-staggered",
		"randomized-c3", "randomized-c5", "half-ring",
		"phase-rushing", "phase-chase", "phase-nosteer",
		"sum-phase", "wakeup-rushing",
	} {
		if !attackSlugs[want] {
			t.Errorf("no registered scenario exercises attack %q", want)
		}
	}
}

func TestFindAndMatch(t *testing.T) {
	if _, ok := Find("ring/a-lead/fifo"); !ok {
		t.Fatal("ring/a-lead/fifo not registered")
	}
	if _, ok := Find("no/such/scenario"); ok {
		t.Fatal("Find invented a scenario")
	}
	got, err := Match("^ring/a-lead/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 4 {
		t.Errorf("Match(^ring/a-lead/) found %d scenarios, want ≥ 4 (3 schedulers + attacks)", len(got))
	}
	if _, err := Match("("); err == nil {
		t.Error("Match accepted a broken pattern")
	}
	everything, err := Match("")
	if err != nil || len(everything) != len(All()) {
		t.Errorf("empty pattern: got %d scenarios err=%v, want the full catalog", len(everything), err)
	}
}

// TestEveryScenarioRuns smoke-runs the whole catalog at its registered
// defaults with a small trial count: every entry must produce a populated,
// well-formed outcome.
func TestEveryScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog smoke run skipped in -short mode")
	}
	ctx := context.Background()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			out, err := s.RunOpts(ctx, 20180516, Opts{Trials: 6, Workers: 2})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.Trials != 6 {
				t.Errorf("outcome has %d trials, want 6", out.Trials)
			}
			if out.N != s.N || out.Scenario != s.Name {
				t.Errorf("outcome mislabelled: %+v", out)
			}
			valid := 0
			for j := 1; j <= out.N; j++ {
				valid += out.Counts[j]
			}
			if valid+out.Failures != out.Trials {
				t.Errorf("counts (%d valid) + failures (%d) ≠ trials (%d)", valid, out.Failures, out.Trials)
			}
			if s.Attack == "" && out.FailRate > 0 {
				t.Errorf("honest scenario failed %d/%d trials", out.Failures, out.Trials)
			}
		})
	}
}

// TestWorkerCountInvariance: scenario outcomes are bit-identical at any
// engine worker count (the engine contract, surfaced at the registry level).
func TestWorkerCountInvariance(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"ring/a-lead/lifo", "complete/shamir/fifo", "sync-complete/complete-lead/honest"} {
		s := MustFind(name)
		a, err := s.RunOpts(ctx, 99, Opts{Trials: 40, Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		b, err := s.RunOpts(ctx, 99, Opts{Trials: 40, Workers: 7})
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(a.Dist, b.Dist) {
			t.Errorf("%s: distribution differs across worker counts:\n  1 worker: %v\n  7 workers: %v",
				name, a.Dist, b.Dist)
		}
	}
}

// TestRegistryMatchesDirectTrialPath pins the byte-identical contract the
// harness refactor relies on: a registry run of a ring scenario reproduces
// the exact distribution of the direct ring.TrialsOpts / RunAttackTrials
// calls the experiments used to make.
func TestRegistryMatchesDirectTrialPath(t *testing.T) {
	ctx := context.Background()
	seed := int64(20180516)

	honest := MustFind("ring/a-lead/fifo")
	got, err := honest.RunOpts(ctx, seed, Opts{N: 32, Trials: 120})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ring.TrialsOpts(ctx, ring.Spec{N: 32, Protocol: alead.New(), Seed: seed}, 120, ring.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dist, want) {
		t.Errorf("honest registry path diverges from ring.TrialsOpts:\n  registry: %v\n  direct:   %v", got.Dist, want)
	}

	attacked := MustFind("ring/a-lead/attack=rushing-equal")
	gotA, err := attacked.RunOpts(ctx, seed, Opts{N: 64, Trials: 10, Target: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := ring.AttackSpec{N: 64, Protocol: alead.New(), Attack: attacks.Rushing{Place: attacks.PlaceEqual}, Target: 3, Seed: seed}
	wantA, err := ring.RunAttackTrials(ctx, spec, 10, ring.TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA.Dist, wantA) {
		t.Errorf("attack registry path diverges from ring.RunAttackTrials:\n  registry: %v\n  direct:   %v", gotA.Dist, wantA)
	}
}

func TestOptsValidation(t *testing.T) {
	s := MustFind("ring/a-lead/attack=rushing-staggered")
	if _, err := s.RunOpts(context.Background(), 1, Opts{N: 8, Trials: 2}); err == nil {
		t.Error("run below MinN should fail")
	}
}
