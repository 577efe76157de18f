package mardsl

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
)

// fuzzSeeds is the shared seed corpus: the embedded twins, generator
// output from both grammars, and a few near-miss shapes.
func fuzzSeeds() []string {
	seeds := []string{
		basicLeadSrc,
		basicSingleSrc,
		"spec t\nkind protocol\nstate s:\n  init:\n    terminate 1\n",
		"spec t\nkind protocol\nreg x\nstate s:\n  on recv when msg % n == 0 and received < n:\n    set x = rand(n)\n    send x\n  on recv:\n    terminate leader(x)\n",
		"spec t\nkind adversary\nuse basic-lead\nplace 2 5\nstate s:\n  on recv:\n    replay (0 - 1) received\n    abort\n",
		"spec t\nkind protocol\nstate s:\n  on recv:\n    send 1 +\n",
		"state s:\n  on recv:\n    drop\n",
	}
	for seed := int64(1); seed <= 3; seed++ {
		seeds = append(seeds, GenerateAdversary(seed), GenerateProtocol(seed))
	}
	return seeds
}

// FuzzMARParse feeds arbitrary text through the whole front end: Parse,
// Validate, and Compile must never panic, and a validated spec must always
// compile.
func FuzzMARParse(f *testing.F) {
	for _, src := range fuzzSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		if err := Validate(spec); err != nil {
			return
		}
		if _, err := Compile(spec); err != nil {
			t.Fatalf("validated spec failed to compile: %v\n%s", err, src)
		}
	})
}

// FuzzMARCompileRun executes every loadable spec on the arena hot path:
// protocol machines drive full honest trial batches, adversary machines
// run against the native Basic-LEAD, and both must complete without
// panicking and reproduce the same distribution when run twice.
func FuzzMARCompileRun(f *testing.F) {
	for _, src := range fuzzSeeds() {
		f.Add(src)
	}
	ctx := context.Background()
	opts := ring.TrialOptions{Workers: 1}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Load(src)
		if err != nil {
			return
		}
		run := func() (*ring.Distribution, error) {
			if prog.Kind == KindProtocol {
				proto, err := prog.RingProtocol()
				if err != nil {
					t.Fatalf("ring protocol: %v", err)
				}
				spec := ring.Spec{N: 5, Protocol: proto, Seed: 7, StepLimit: 2048}
				return ring.TrialsOpts(ctx, spec, 6, opts)
			}
			atk, err := prog.RingAttack()
			if err != nil {
				t.Fatalf("ring attack: %v", err)
			}
			target := prog.Defaults.Target
			if target == 0 {
				target = 2
			}
			spec := ring.AttackSpec{N: 9, Protocol: basiclead.New(), Attack: atk, Target: target, Seed: 7}
			return ring.RunAttackTrials(ctx, spec, 6, opts)
		}
		a, err := run()
		if err != nil {
			var pe *ring.PlanError
			if errors.As(err, &pe) {
				return // infeasible placement or target for this n
			}
			t.Fatalf("run: %v", err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("repeated runs diverge:\n%+v\n%+v", a, b)
		}
	})
}
