package ring

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// randomDistribution builds a distribution with arbitrary but reproducible
// contents.
func randomDistribution(n int, seed uint64, trials int) *Distribution {
	d := NewDistribution(n)
	for t := 0; t < trials; t++ {
		h := sim.Mix64(seed, uint64(t))
		res := sim.Result{Output: int64(h%uint64(n+2)) - 1, Delivered: int(h % 31)}
		if h%7 == 0 {
			res = sim.Result{Failed: true, Reason: sim.FailReason(1 + h%4), Delivered: res.Delivered}
		}
		d.Add(res)
	}
	return d
}

func TestMergeCommutative(t *testing.T) {
	a1, b1 := randomDistribution(6, 1, 40), randomDistribution(6, 2, 60)
	a2, b2 := randomDistribution(6, 1, 40), randomDistribution(6, 2, 60)
	if err := a1.Merge(b1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Merge(a2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, b2) {
		t.Errorf("a⊕b != b⊕a:\n%+v\n%+v", a1, b2)
	}
}

func TestMergeAssociative(t *testing.T) {
	mk := func() (x, y, z *Distribution) {
		return randomDistribution(5, 3, 30), randomDistribution(5, 4, 50), randomDistribution(5, 5, 20)
	}
	// (x ⊕ y) ⊕ z
	x1, y1, z1 := mk()
	if err := x1.Merge(y1); err != nil {
		t.Fatal(err)
	}
	if err := x1.Merge(z1); err != nil {
		t.Fatal(err)
	}
	// x ⊕ (y ⊕ z)
	x2, y2, z2 := mk()
	if err := y2.Merge(z2); err != nil {
		t.Fatal(err)
	}
	if err := x2.Merge(y2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x1, x2) {
		t.Errorf("(x⊕y)⊕z != x⊕(y⊕z):\n%+v\n%+v", x1, x2)
	}
}

func TestMergeIdentityAndErrors(t *testing.T) {
	d := randomDistribution(4, 9, 25)
	snapshot := *d
	if err := d.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(NewDistribution(4)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*d, snapshot) {
		t.Error("merging nil and an empty distribution changed the receiver")
	}
	if err := d.Merge(NewDistribution(5)); err == nil {
		t.Error("merging different ring sizes succeeded")
	}
}

// TestMergeRefusesMessageOverflow merges a shard whose message count
// passes Validate but overflows the receiver's: Merge must refuse it and
// leave the receiver unchanged, where a wrapped sum would read negative.
func TestMergeRefusesMessageOverflow(t *testing.T) {
	d := randomDistribution(8, 3, 40)
	huge := NewDistribution(8)
	huge.Trials, huge.Counts[8], huge.Messages = 40, 40, math.MaxInt
	if err := huge.Validate(8, 40); err != nil {
		t.Fatalf("the shard must pass Validate: %v", err)
	}
	if d.Messages == 0 {
		t.Fatal("the receiver needs messages for the sum to overflow")
	}
	snapshot := *d
	snapshot.Counts = append([]int(nil), d.Counts...)
	if err := d.Merge(huge); err == nil {
		t.Fatalf("merge succeeded with %d messages", d.Messages)
	}
	if !reflect.DeepEqual(*d, snapshot) {
		t.Errorf("a refused merge changed the receiver: %+v, was %+v", *d, snapshot)
	}
	if err := huge.Merge(NewDistribution(8)); err != nil {
		t.Errorf("merging an empty shard into MaxInt messages: %v", err)
	}
}

// sequentialTrials is the pre-engine ring.Trials loop, kept verbatim as the
// determinism ground truth: engine-backed runs must reproduce it bit for
// bit at every worker count.
func sequentialTrials(spec Spec, trials int) (*Distribution, error) {
	dist := NewDistribution(spec.N)
	for t := 0; t < trials; t++ {
		trialSpec := spec
		trialSpec.Seed = int64(sim.Mix64(uint64(spec.Seed), uint64(t)+0x1234))
		res, err := Run(trialSpec)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t, err)
		}
		dist.Add(res)
	}
	return dist, nil
}

// sequentialAttackTrials is the pre-engine attack-trial loop.
func sequentialAttackTrials(n int, protocol Protocol, attack Attack, target int64, baseSeed int64, trials int) (*Distribution, error) {
	dist := NewDistribution(n)
	for t := 0; t < trials; t++ {
		seed := int64(sim.Mix64(uint64(baseSeed), uint64(t)+0x9e37))
		dev, err := attack.Plan(n, target, seed)
		if err != nil {
			return nil, fmt.Errorf("plan %s (n=%d): %w", attack.Name(), n, err)
		}
		res, err := Run(Spec{N: n, Protocol: protocol, Deviation: dev, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", t, err)
		}
		dist.Add(res)
	}
	return dist, nil
}

func TestTrialsMatchSequentialBaselineAtAnyWorkerCount(t *testing.T) {
	spec := Spec{N: 8, Protocol: testProto{}, Seed: 424242}
	const trials = 600
	want, err := sequentialTrials(spec, trials)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := TrialsOpts(context.Background(), spec, trials, TrialOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: engine distribution differs from sequential baseline\ngot  %v\nwant %v",
				workers, got, want)
		}
	}
}

func TestAttackTrialsMatchSequentialBaselineAtAnyWorkerCount(t *testing.T) {
	const (
		n      = 8
		target = 3
		seed   = 77
		trials = 400
	)
	want, err := sequentialAttackTrials(n, testProto{}, fixedAttack{}, target, seed, trials)
	if err != nil {
		t.Fatal(err)
	}
	spec := AttackSpec{N: n, Protocol: testProto{}, Attack: fixedAttack{}, Target: target, Seed: seed}
	for _, workers := range []int{1, 4, 8} {
		got, err := RunAttackTrials(context.Background(), spec, trials, TrialOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: engine distribution differs from sequential baseline", workers)
		}
	}
}

func TestTrialsAdaptiveStopIsDeterministic(t *testing.T) {
	spec := Spec{N: 8, Protocol: testProto{}, Seed: 5}
	const trials = 2000
	stop := StopWhenResolved(0.05, 200, 1.96)
	var want *Distribution
	for _, workers := range []int{1, 4, 8} {
		got, err := TrialsOpts(context.Background(), spec, trials,
			TrialOptions{Workers: workers, Stop: stop})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			if got.Trials >= trials {
				t.Logf("stop rule never fired (%d trials) — still checking determinism", got.Trials)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: adaptive distribution differs from workers=1 run", workers)
		}
	}
}

func TestTrialsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TrialsOpts(ctx, Spec{N: 8, Protocol: testProto{}, Seed: 1}, 1000, TrialOptions{Workers: 2})
	if err == nil {
		t.Fatal("cancelled context did not abort the batch")
	}
}

// TestValidateShard pins the invariants a shard from outside the process
// must keep before it is merged: built by Add, a distribution passes, and
// each way a claimant's result can be malformed fails.
func TestValidateShard(t *testing.T) {
	good := randomDistribution(8, 5, 40)
	if err := good.Validate(8, 40); err != nil {
		t.Fatalf("a distribution built by Add fails: %v", err)
	}
	mutate := func(f func(d *Distribution)) *Distribution {
		d := randomDistribution(8, 5, 40)
		f(d)
		return d
	}
	for _, tc := range []struct {
		name string
		d    *Distribution
	}{
		{"nil", nil},
		{"empty", NewDistribution(8)},
		{"other ring size", randomDistribution(9, 5, 40)},
		{"short counts", mutate(func(d *Distribution) { d.Counts = d.Counts[:2] })},
		{"wins for leader 0", mutate(func(d *Distribution) { d.Counts[0]++; d.Counts[1]-- })},
		{"negative count", mutate(func(d *Distribution) { d.Counts[1]--; d.Counts[2] += 2; d.FailCounts[0]-- })},
		{"negative messages", mutate(func(d *Distribution) { d.Messages = -1 })},
		{"counts short of trials", mutate(func(d *Distribution) { d.Counts[1]-- })},
		{"counts past trials", mutate(func(d *Distribution) { d.Counts[1]++ })},
		{"trials off", mutate(func(d *Distribution) { d.Trials++ })},
	} {
		if err := tc.d.Validate(8, 40); err == nil {
			t.Errorf("%s: Validate accepted a malformed shard", tc.name)
		}
	}
	// Counters that wrap around to the trial count still fail.
	wrap := NewDistribution(3)
	wrap.Trials = 40
	wrap.Counts[1], wrap.Counts[2], wrap.Counts[3] = 1<<62, 1<<62, 40
	wrap.FailCounts[0], wrap.FailCounts[1] = 1<<62, 1<<62
	if err := wrap.Validate(3, 40); err == nil {
		t.Error("Validate accepted counts that overflow to the trial count")
	}
}
