package marlib_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mardsl/marlib"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const diffSeed = 20180516

// distBytes runs the scenario and returns its outcome distribution as
// canonical JSON bytes.
func distBytes(t *testing.T, name string, o scenario.Opts) []byte {
	t.Helper()
	s, ok := scenario.Find(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	out, err := s.RunOpts(context.Background(), diffSeed, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b, err := json.Marshal(out.Dist)
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	return b
}

// TestTwinDistributionsByteIdentical is the differential matrix: every
// embedded spec's compiled scenario must reproduce its native twin's full
// outcome distribution byte-for-byte across ring sizes, worker counts, and
// the catalog's scheduler kinds (the honest twins span fifo/lifo/random).
func TestTwinDistributionsByteIdentical(t *testing.T) {
	for _, twin := range marlib.Twins() {
		for _, n := range []int{5, 8, 16} {
			for _, workers := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/n=%d/w=%d", twin.Compiled, n, workers)
				t.Run(name, func(t *testing.T) {
					o := scenario.Opts{N: n, Trials: 150, Workers: workers}
					native := distBytes(t, twin.Native, o)
					compiled := distBytes(t, twin.Compiled, o)
					if string(native) != string(compiled) {
						t.Errorf("distributions differ\nnative:   %s\ncompiled: %s", native, compiled)
					}
				})
			}
		}
	}
}

// TestCompiledWorkerInvariance pins the compiled scenarios' own
// determinism contract: one worker and many workers produce the same
// bytes.
func TestCompiledWorkerInvariance(t *testing.T) {
	for _, twin := range marlib.Twins() {
		base := distBytes(t, twin.Compiled, scenario.Opts{Trials: 120, Workers: 1})
		for _, workers := range []int{4, 8} {
			got := distBytes(t, twin.Compiled, scenario.Opts{Trials: 120, Workers: workers})
			if string(got) != string(base) {
				t.Errorf("%s: workers=%d diverges from workers=1", twin.Compiled, workers)
			}
		}
	}
}

// TestCompiledShardsMergeToNative runs the compiled scenarios through the
// fleet path — RunShard over an uneven partition of the batch — and
// checks the merged shards reproduce the native twin's full distribution,
// the property remote chunk claiming relies on.
func TestCompiledShardsMergeToNative(t *testing.T) {
	const trials = 150
	cuts := []int{0, 37, 90, trials}
	for _, twin := range marlib.Twins() {
		t.Run(twin.Compiled, func(t *testing.T) {
			s, ok := scenario.Find(twin.Compiled)
			if !ok {
				t.Fatalf("scenario %s not registered", twin.Compiled)
			}
			o := scenario.Opts{Trials: trials, Workers: 2}
			merged := ring.NewDistribution(s.N)
			for i := 0; i+1 < len(cuts); i++ {
				shard, err := s.RunShard(context.Background(), diffSeed, o, cuts[i], cuts[i+1])
				if err != nil {
					t.Fatalf("shard [%d,%d): %v", cuts[i], cuts[i+1], err)
				}
				if err := merged.Merge(shard); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
			mergedJSON, err := json.Marshal(merged)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			native := distBytes(t, twin.Native, o)
			if string(mergedJSON) != string(native) {
				t.Errorf("merged shards diverge from native\nnative: %s\nmerged: %s", native, mergedJSON)
			}
		})
	}
}

// TestAttackTwinSingleRunSchedulers compares single executions of the
// attack twin under explicit non-FIFO schedulers, covering the scheduler
// dimension the registered attack scenario (FIFO) does not.
func TestAttackTwinSingleRunSchedulers(t *testing.T) {
	arena := sim.NewArena()
	native := scenario.MustFind("ring/basic-lead/attack=basic-single")
	compiled := scenario.MustFind("ring/mar-basic-lead/attack=mar-basic-single")
	scheds := map[string]func(seed int64) sim.Scheduler{
		"fifo":   func(int64) sim.Scheduler { return nil },
		"lifo":   func(int64) sim.Scheduler { return sim.LIFOScheduler{} },
		"random": func(seed int64) sim.Scheduler { return arena.RandomScheduler(seed) },
	}
	for schedName, mk := range scheds {
		for seed := int64(1); seed <= 20; seed++ {
			o := scenario.Opts{N: 9}
			nres, ok, err := native.SingleRun(seed, mk(seed), o)
			if !ok || err != nil {
				t.Fatalf("native single run (%s seed %d): ok=%v err=%v", schedName, seed, ok, err)
			}
			nres = nres.Clone()
			cres, ok, err := compiled.SingleRun(seed, mk(seed), o)
			if !ok || err != nil {
				t.Fatalf("compiled single run (%s seed %d): ok=%v err=%v", schedName, seed, ok, err)
			}
			cres = cres.Clone()
			if !reflect.DeepEqual(nres, cres) {
				t.Errorf("%s seed %d: results differ\nnative:   %+v\ncompiled: %+v", schedName, seed, nres, cres)
			}
		}
	}
}
