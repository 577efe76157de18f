package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/ring"
)

// TestRunShardPartitionMatchesRunOpts pins the fleet byte-identity
// contract at the scenario layer: for every registered scenario, splitting
// the batch into uneven shards via RunShard, merging the shard
// distributions, and summarizing through OutcomeFromDist must reproduce the
// exact bytes RunOpts produces on a single node. This is the invariant
// that lets a coordinator hand trial ranges to remote workers and still
// serve results indistinguishable from local execution.
func TestRunShardPartitionMatchesRunOpts(t *testing.T) {
	const trials = 50
	const step = 17 // deliberately does not divide trials
	ctx := context.Background()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			o := Opts{Trials: trials, Workers: 2}
			want, err := s.RunOpts(ctx, 42, o)
			if err != nil {
				t.Fatalf("RunOpts: %v", err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}

			n, total := s.Resolve(o)
			if total != trials {
				t.Fatalf("Resolve trials = %d, want %d", total, trials)
			}
			merged := ring.NewDistribution(n)
			// Merge out of order (last shard first) to exercise
			// commutativity, not just partition correctness.
			var shards []*ring.Distribution
			for start := 0; start < total; start += step {
				end := start + step
				if end > total {
					end = total
				}
				shard, err := s.RunShard(ctx, 42, o, start, end)
				if err != nil {
					t.Fatalf("RunShard(%d, %d): %v", start, end, err)
				}
				shards = append(shards, shard)
			}
			for i := len(shards) - 1; i >= 0; i-- {
				if err := merged.Merge(shards[i]); err != nil {
					t.Fatalf("merge shard %d: %v", i, err)
				}
			}
			got := s.OutcomeFromDist(merged, o)
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("sharded outcome differs from single-node run\n got: %s\nwant: %s", gotJSON, wantJSON)
			}
		})
	}
}

// TestRunShardValidation pins the shard argument checks: ranges outside
// the resolved batch and undersized networks are rejected.
// TestRunMatchesRunOpts pins the convenience wrapper: Run is RunOpts at
// registered defaults.
func TestRunMatchesRunOpts(t *testing.T) {
	sc, ok := Find("ring/basic-lead/fifo")
	if !ok {
		t.Fatal("scenario missing")
	}
	ctx := context.Background()
	got, err := sc.Run(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.RunOpts(ctx, 9, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatal("Run differs from RunOpts at defaults")
	}
}

func TestRunShardValidation(t *testing.T) {
	s, ok := Find("ring/basic-lead/fifo")
	if !ok {
		t.Fatal("scenario not registered")
	}
	ctx := context.Background()
	o := Opts{Trials: 10}
	for _, r := range [][2]int{{-1, 5}, {7, 3}, {0, 11}} {
		if _, err := s.RunShard(ctx, 1, o, r[0], r[1]); err == nil {
			t.Fatalf("shard [%d, %d) of 10 trials accepted", r[0], r[1])
		}
	}
	if _, err := s.RunShard(ctx, 1, Opts{N: 1, Trials: 10}, 0, 5); err == nil {
		t.Fatal("n below MinN accepted")
	}
	// A valid empty shard merges as a no-op.
	shard, err := s.RunShard(ctx, 1, o, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Trials != 0 {
		t.Fatalf("empty shard ran %d trials", shard.Trials)
	}
}

// TestRunShardProgressFromTrialZero pins the progress a daemon streams
// from a job's first chunk: a shard starting at trial 0 delivers the
// batch's own prefix snapshots — RunOpts's whole sequence for the whole
// range, its leading points for a shorter one — and a shard starting past
// trial 0 delivers none.
func TestRunShardProgressFromTrialZero(t *testing.T) {
	s := MustFind("ring/a-lead/fifo")
	const trials, head = 300, 128 // head is four engine chunks
	ctx := context.Background()
	capture := func(run func(Opts) error) []Snapshot {
		t.Helper()
		var snaps []Snapshot
		o := Opts{N: 16, Trials: trials, Workers: 2, Progress: func(snap Snapshot) { snaps = append(snaps, snap) }}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	want := capture(func(o Opts) error { _, err := s.RunOpts(ctx, 42, o); return err })
	if len(want) < 2 {
		t.Fatalf("RunOpts delivered %d snapshots, want a sequence", len(want))
	}
	shard := func(start, end int) func(Opts) error {
		return func(o Opts) error { _, err := s.RunShard(ctx, 42, o, start, end); return err }
	}
	if got := capture(shard(0, trials)); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunShard(0, %d) delivered %d snapshots differing from RunOpts's %d", trials, len(got), len(want))
	}
	got := capture(shard(0, head))
	if len(got) == 0 || got[len(got)-1].Done != head || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("RunShard(0, %d) delivered %+v, want RunOpts's snapshots up to %d", head, got, head)
	}
	if got := capture(shard(head, trials)); len(got) != 0 {
		t.Fatalf("RunShard(%d, %d) delivered %d snapshots, want none", head, trials, len(got))
	}
}
