package mardsl

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
)

func TestGeneratedSpecsAlwaysLoad(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		adv := GenerateAdversary(seed)
		prog, err := Load(adv)
		if err != nil {
			t.Fatalf("adversary seed %d: %v\n%s", seed, err, adv)
		}
		if prog.Kind != KindAdversary || prog.Use != "basic-lead" {
			t.Fatalf("adversary seed %d: bad program %+v", seed, prog)
		}
		want := fmt.Sprintf("gen-adv-%016x", uint64(seed))
		if prog.Name != want {
			t.Fatalf("adversary seed %d: name %q, want %q", seed, prog.Name, want)
		}

		proto := GenerateProtocol(seed)
		pprog, err := Load(proto)
		if err != nil {
			t.Fatalf("protocol seed %d: %v\n%s", seed, err, proto)
		}
		if pprog.Kind != KindProtocol {
			t.Fatalf("protocol seed %d: bad kind %q", seed, pprog.Kind)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if GenerateAdversary(seed) != GenerateAdversary(seed) {
			t.Fatalf("GenerateAdversary(%d) is not deterministic", seed)
		}
		if GenerateProtocol(seed) != GenerateProtocol(seed) {
			t.Fatalf("GenerateProtocol(%d) is not deterministic", seed)
		}
	}
	if GenerateAdversary(1) == GenerateAdversary(2) {
		t.Fatalf("distinct seeds collapsed to one adversary spec")
	}
	if GenerateProtocol(1) == GenerateProtocol(2) {
		t.Fatalf("distinct seeds collapsed to one protocol spec")
	}
}

func TestGeneratedProtocolsRunDeterministically(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		prog, err := Load(GenerateProtocol(seed))
		if err != nil {
			t.Fatal(err)
		}
		proto, err := prog.RingProtocol()
		if err != nil {
			t.Fatal(err)
		}
		spec := ring.Spec{N: 6, Protocol: proto, Seed: 7}
		a, err := ring.Trials(spec, 40)
		if err != nil {
			t.Fatalf("protocol seed %d: %v", seed, err)
		}
		b, err := ring.Trials(spec, 40)
		if err != nil {
			t.Fatalf("protocol seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("protocol seed %d: repeated batches differ", seed)
		}
	}
}

func TestGeneratedAdversariesRunAgainstBasicLead(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prog, err := Load(GenerateAdversary(seed))
		if err != nil {
			t.Fatal(err)
		}
		atk, err := prog.RingAttack()
		if err != nil {
			t.Fatal(err)
		}
		// n=10 covers every generated placement (≤5) and target (≤9).
		spec := ring.AttackSpec{N: 10, Protocol: basiclead.New(), Attack: atk, Target: prog.Defaults.Target, Seed: 7}
		a, err := ring.RunAttackTrials(context.Background(), spec, 40, ring.TrialOptions{})
		if err != nil {
			t.Fatalf("adversary seed %d: %v", seed, err)
		}
		b, err := ring.RunAttackTrials(context.Background(), spec, 40, ring.TrialOptions{})
		if err != nil {
			t.Fatalf("adversary seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("adversary seed %d: repeated batches differ", seed)
		}
	}
}
