package repro

import (
	"context"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	proto := NewPhaseAsyncLead()
	res, err := Run(Spec{N: 50, Protocol: proto, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("honest run failed: %v", res.Reason)
	}
	if res.Output < 1 || res.Output > 50 {
		t.Fatalf("leader %d out of range", res.Output)
	}
}

func TestPublicAPIAttackFlow(t *testing.T) {
	proto := NewALead()
	spec := AttackSpec{N: 100, Protocol: proto, Attack: NewSqrtAttack(0), Target: 7, Seed: 1}
	dist, err := RunAttackTrials(context.Background(), spec, 10, TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rate := dist.WinRate(7); rate != 1.0 {
		t.Fatalf("forced rate %v, want 1.0", rate)
	}
	rep := Bias(dist)
	if rep.Leader != 7 {
		t.Fatalf("bias report leader %d, want 7", rep.Leader)
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	res, err := RunConcurrent(Spec{N: 20, Protocol: NewALead(), Seed: 2}, ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("concurrent honest run failed: %v", res.Reason)
	}
}

func TestPublicAPIUtilities(t *testing.T) {
	dist, err := Trials(Spec{N: 10, Protocol: NewALead(), Seed: 3}, 200)
	if err != nil {
		t.Fatal(err)
	}
	u := SelfishUtility(10, 4)
	e, err := ExpectedUtility(dist, u)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 || e > 1 {
		t.Fatalf("expected utility %v outside [0,1]", e)
	}
	if len(Experiments()) != 15 {
		t.Fatalf("experiment suite has %d entries, want 15", len(Experiments()))
	}
}

func TestPublicAPIScenarios(t *testing.T) {
	all := Scenarios()
	if len(all) < 25 {
		t.Fatalf("scenario catalog has %d entries, want ≥ 25", len(all))
	}
	if _, ok := FindScenario("ring/phase-lead/fifo"); !ok {
		t.Fatal("ring/phase-lead/fifo missing from the catalog")
	}
	matched, err := MatchScenarios("^complete/")
	if err != nil || len(matched) < 2 {
		t.Fatalf("MatchScenarios(^complete/): %d entries err=%v, want ≥ 2", len(matched), err)
	}
	out, err := RunScenario(context.Background(), "ring/a-lead/fifo", 1, ScenarioOpts{N: 8, Trials: 50})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 50 || out.N != 8 || out.FailRate != 0 {
		t.Fatalf("unexpected outcome %+v", out)
	}
	if _, err := RunScenario(context.Background(), "no/such/scenario", 1, ScenarioOpts{}); err == nil {
		t.Fatal("RunScenario invented a scenario")
	}
}
