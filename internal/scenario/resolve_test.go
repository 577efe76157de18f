package scenario

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/ring"
)

func TestResolveDefaultsAndOverrides(t *testing.T) {
	s := MustFind("ring/basic-lead/fifo")
	if n, trials := s.Resolve(Opts{}); n != 16 || trials != 400 {
		t.Errorf("zero opts: got (%d, %d), want registered (16, 400)", n, trials)
	}
	if n, trials := s.Resolve(Opts{N: 9}); n != 9 || trials != 400 {
		t.Errorf("N override: got (%d, %d)", n, trials)
	}
	if n, trials := s.Resolve(Opts{Trials: 7}); n != 16 || trials != 7 {
		t.Errorf("Trials override: got (%d, %d)", n, trials)
	}
	if n, trials := s.Resolve(Opts{N: -3, Trials: -5}); n != 16 || trials != 400 {
		t.Errorf("non-positive overrides must keep defaults: got (%d, %d)", n, trials)
	}
}

func TestParamsOverrideRules(t *testing.T) {
	s := MustFind("ring/basic-lead/attack=basic-single")
	p := s.params(Opts{})
	if p.K != s.K || p.Target != s.Target || p.Workers != 0 {
		t.Errorf("zero opts resolved to %+v, want scenario defaults", p)
	}
	p = s.params(Opts{K: -1, Target: 5, Workers: 3})
	if p.K != -1 {
		t.Errorf("K=-1 is a real override (n-1 coalition), got %d", p.K)
	}
	if p.Target != 5 || p.Workers != 3 {
		t.Errorf("Target/Workers overrides lost: %+v", p)
	}
	p = s.params(Opts{K: 0, Target: 0})
	if p.K != s.K || p.Target != s.Target {
		t.Errorf("zero K/Target must keep scenario defaults, got %+v", p)
	}
}

// TestOutcomeFromDistMatchesRunOpts pins the coordinator path: merging a
// full partition of shards and summarizing through OutcomeFromDist must
// produce the same marshaled outcome bytes as a single RunOpts call —
// including the attack-only Target and TargetRate fields.
func TestOutcomeFromDistMatchesRunOpts(t *testing.T) {
	const seed = 41
	for _, name := range []string{"ring/basic-lead/fifo", "ring/basic-lead/attack=basic-single"} {
		s := MustFind(name)
		o := Opts{N: 8, Trials: 60, Workers: 2}
		direct, err := s.RunOpts(context.Background(), seed, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		merged := ring.NewDistribution(8)
		for _, cut := range [][2]int{{0, 13}, {13, 40}, {40, 60}} {
			shard, err := s.RunShard(context.Background(), seed, o, cut[0], cut[1])
			if err != nil {
				t.Fatalf("%s shard %v: %v", name, cut, err)
			}
			if err := merged.Merge(shard); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		fromDist := s.OutcomeFromDist(merged, o)
		a, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(fromDist)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: outcomes differ\ndirect:   %s\nfromDist: %s", name, a, b)
		}
		if s.Attack != "" && (fromDist.Target != 2 || fromDist.TargetRate != 1) {
			t.Errorf("%s: attack outcome lost target reporting: %+v", name, fromDist)
		}
	}
}

// TestOutcomeFromDistTargetOverride checks the target override threads into
// the summarized outcome without rerunning anything.
func TestOutcomeFromDistTargetOverride(t *testing.T) {
	s := MustFind("ring/basic-lead/attack=basic-single")
	d := ring.NewDistribution(8)
	out := s.OutcomeFromDist(d, Opts{Target: 5})
	if out.Target != 5 {
		t.Errorf("target override lost: %+v", out)
	}
	honest := MustFind("ring/basic-lead/fifo")
	if got := honest.OutcomeFromDist(d, Opts{Target: 5}); got.Target != 0 || got.TargetRate != 0 {
		t.Errorf("honest outcomes must not report a target: %+v", got)
	}
}

// TestOutcomeFromDistEmpty summarizes a zero-trial distribution: every rate
// must come out finite and zero-valued rather than NaN, since coordinators
// can observe empty prefixes.
func TestOutcomeFromDistEmpty(t *testing.T) {
	s := MustFind("ring/basic-lead/fifo")
	out := s.OutcomeFromDist(ring.NewDistribution(8), Opts{})
	if out.Trials != 0 || out.Failures != 0 {
		t.Errorf("empty distribution miscounted: %+v", out)
	}
	for name, v := range map[string]float64{
		"fail rate":   out.FailRate,
		"max win":     out.MaxWinRate,
		"target rate": out.TargetRate,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v != 0 {
			t.Errorf("%s on empty distribution = %v, want 0", name, v)
		}
	}
	if _, err := json.Marshal(out); err != nil {
		t.Errorf("empty outcome does not marshal: %v", err)
	}
}

func TestTryRegisterValidation(t *testing.T) {
	stub := func(int64, params) (engine.ChunkJob, error) { return nil, nil }
	cases := map[string]Scenario{
		"unnamed":          {Topology: "ring", Protocol: "p", Scheduler: SchedFIFO, N: 4, Trials: 1, chunks: stub},
		"missing fields":   {Name: "x/a", N: 4, Trials: 1, chunks: stub},
		"bad n":            {Name: "x/b", Topology: "ring", Protocol: "p", Scheduler: SchedFIFO, N: 1, Trials: 1, chunks: stub},
		"bad trials":       {Name: "x/c", Topology: "ring", Protocol: "p", Scheduler: SchedFIFO, N: 4, Trials: 0, chunks: stub},
		"no chunk builder": {Name: "x/d", Topology: "ring", Protocol: "p", Scheduler: SchedFIFO, N: 4, Trials: 1},
		"duplicate":        {Name: "ring/basic-lead/fifo", Topology: "ring", Protocol: "p", Scheduler: SchedFIFO, N: 4, Trials: 1, chunks: stub},
	}
	for name, s := range cases {
		if err := tryRegister(s); err == nil {
			t.Errorf("%s: tryRegister unexpectedly succeeded", name)
		}
	}
	if _, ok := Find("x/b"); ok {
		t.Errorf("rejected scenario leaked into the registry")
	}
}

func TestTryRegisterFamilyValidation(t *testing.T) {
	plan := func(ring.Protocol, int, string) (ring.Attack, error) { return nil, nil }
	cases := map[string]DeviationFamily{
		"unnamed":           {Plan: plan},
		"no plan":           {Name: "x-fam"},
		"reserved identity": {Name: FamilyIdentity, Plan: plan},
		"reserved self":     {Name: FamilySelf, Plan: plan},
		"duplicate":         {Name: "basic-single", Plan: plan},
	}
	for name, f := range cases {
		if err := tryRegisterFamily(f); err == nil {
			t.Errorf("%s: tryRegisterFamily unexpectedly succeeded", name)
		}
	}
}

func TestRuntimeRegisterValidation(t *testing.T) {
	if err := RegisterRingScenario(Scenario{Name: "x/e"}, nil); err == nil {
		t.Errorf("nil protocol should be rejected")
	}
	if err := RegisterRingAttackScenario(Scenario{Name: "x/f"}, nil, "basic-single", ""); err == nil {
		t.Errorf("nil protocol should be rejected")
	}
	proto, ok := FindRingProtocol("basic-lead")
	if !ok {
		t.Fatalf("native basic-lead not resolvable")
	}
	if err := RegisterRingScenario(Scenario{
		Name: "x/g", Topology: "ring", Protocol: "p", Scheduler: "bogus", N: 4, Trials: 1,
	}, proto); err == nil {
		t.Errorf("unknown scheduler should be rejected")
	}
	if err := RegisterRingAttackScenario(Scenario{
		Name: "x/h", Topology: "ring", Protocol: "p", N: 4, Trials: 1,
	}, proto, "no-such-family", ""); err == nil {
		t.Errorf("unknown family should be rejected")
	}
	if _, ok := FindRingProtocol("no-such-protocol"); ok {
		t.Errorf("FindRingProtocol invented a protocol")
	}
}
