package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestRunRangePartitionReproducesFullBatch pins the remote-chunking
// contract: running any partition of [0, trials) through RunRange and
// merging the shards reproduces the full batch exactly, for any partition
// granularity and worker count.
func TestRunRangePartitionReproducesFullBatch(t *testing.T) {
	const trials = 500
	job := mixJob(7).chunks()
	sink := tallySink()
	want := sequentialBaseline(t, mixJob(7), trials)

	for _, step := range []int{1, 33, 100, trials} {
		for _, workers := range []int{1, 3} {
			merged := sink.New()
			for start := 0; start < trials; start += step {
				end := start + step
				if end > trials {
					end = trials
				}
				shard, err := RunRange(context.Background(), start, end, job, sink,
					Options[*tally]{Workers: workers})
				if err != nil {
					t.Fatalf("RunRange(%d, %d): %v", start, end, err)
				}
				sink.Merge(merged, shard)
			}
			if !reflect.DeepEqual(merged, want) {
				t.Fatalf("step %d workers %d: merged shards differ from sequential baseline", step, workers)
			}
		}
	}
}

// TestRunRangeUsesLogicalTrialIndices pins that the job sees the logical
// trial indices of the full batch, not range-local ones: a range [start,
// end) must invoke exactly trials start..end-1.
func TestRunRangeUsesLogicalTrialIndices(t *testing.T) {
	var mu = make(chan struct{}, 1)
	seen := map[int]int{}
	job := trialJob(func(tr int, _ *sim.Arena) (sim.Result, error) {
		mu <- struct{}{}
		seen[tr]++
		<-mu
		return sim.Result{Output: 1}, nil
	})
	if _, err := RunRange(context.Background(), 120, 200, job.chunks(), tallySink(),
		Options[*tally]{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 80 {
		t.Fatalf("ran %d distinct trials, want 80", len(seen))
	}
	for tr, count := range seen {
		if tr < 120 || tr >= 200 {
			t.Fatalf("trial %d outside the requested range [120, 200)", tr)
		}
		if count != 1 {
			t.Fatalf("trial %d ran %d times", tr, count)
		}
	}
}

// TestRunRangeRejectsInvalidRange pins the argument validation.
func TestRunRangeRejectsInvalidRange(t *testing.T) {
	for _, r := range [][2]int{{-1, 5}, {10, 3}} {
		if _, err := RunRange(context.Background(), r[0], r[1], mixJob(1).chunks(), tallySink(),
			Options[*tally]{}); err == nil {
			t.Fatalf("range [%d, %d) accepted", r[0], r[1])
		}
	}
	// An empty range is valid and returns the empty shard.
	got, err := RunRange(context.Background(), 7, 7, mixJob(1).chunks(), tallySink(), Options[*tally]{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tallySink().New()) {
		t.Fatal("empty range returned a non-empty shard")
	}
}

// TestRunRangeReportsLogicalFailureIndex pins that errors carry the logical
// trial index, so a coordinator's deterministic lowest-failure reporting
// holds across distributed shards too.
func TestRunRangeReportsLogicalFailureIndex(t *testing.T) {
	boom := errors.New("boom")
	job := trialJob(func(tr int, _ *sim.Arena) (sim.Result, error) {
		if tr == 150 {
			return sim.Result{}, boom
		}
		return sim.Result{Output: 1}, nil
	})
	_, err := RunRange(context.Background(), 100, 200, job.chunks(), tallySink(),
		Options[*tally]{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the trial-150 failure", err)
	}
}
