package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// tally is a minimal shard: per-output counts plus a message sum, exercising
// the same counter-merge shape as ring.Distribution without importing it.
type tally struct {
	counts   map[int64]int
	fails    int
	messages int
}

func tallySink() Sink[*tally] {
	return Sink[*tally]{
		New: func() *tally { return &tally{counts: map[int64]int{}} },
		Add: func(s *tally, res sim.Result) {
			s.messages += res.Delivered
			if res.Failed {
				s.fails++
				return
			}
			s.counts[res.Output]++
		},
		Merge: func(dst, src *tally) {
			dst.fails += src.fails
			dst.messages += src.messages
			for k, v := range src.counts {
				dst.counts[k] += v
			}
		},
	}
}

// mixJob derives every trial's outcome purely from the trial index, like
// every real job in the repository derives its seed via sim.Mix64.
func mixJob(baseSeed uint64) Job {
	return JobFunc(func(t int, _ *sim.Arena) (sim.Result, error) {
		h := sim.Mix64(baseSeed, uint64(t))
		res := sim.Result{Output: int64(h % 17), Delivered: int(h % 97)}
		if h%13 == 0 {
			res = sim.Result{Failed: true, Reason: sim.FailAbort, Delivered: res.Delivered}
		}
		return res, nil
	})
}

// sequentialBaseline is the pre-engine trial loop, kept as the ground truth
// the parallel runs must reproduce bit for bit.
func sequentialBaseline(t *testing.T, job Job, trials int) *tally {
	t.Helper()
	sink := tallySink()
	acc := sink.New()
	for i := 0; i < trials; i++ {
		res, err := job.Trial(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink.Add(acc, res)
	}
	return acc
}

func TestRunMatchesSequentialAtAnyWorkerCount(t *testing.T) {
	const trials = 1000
	job := mixJob(42)
	want := sequentialBaseline(t, job, trials)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{0, 1, 7, 1000} {
			got, err := Run(context.Background(), trials, job, tallySink(),
				Options[*tally]{Workers: workers, Chunk: chunk})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d chunk=%d: merged shard differs from sequential baseline", workers, chunk)
			}
		}
	}
}

func TestRunZeroAndNegativeTrials(t *testing.T) {
	for _, trials := range []int{0, -3} {
		got, err := Run(context.Background(), trials, mixJob(1), tallySink(), Options[*tally]{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.counts) != 0 || got.fails != 0 {
			t.Errorf("trials=%d: expected empty shard, got %+v", trials, got)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	job := JobFunc(func(t int, _ *sim.Arena) (sim.Result, error) {
		if t == 37 {
			return sim.Result{}, fmt.Errorf("trial %d: %w", t, boom)
		}
		return sim.Result{Output: 1}, nil
	})
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), 100, job, tallySink(), Options[*tally]{Workers: workers})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	job := JobFunc(func(t int, _ *sim.Arena) (sim.Result, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return sim.Result{Output: 1}, nil
	})
	_, err := Run(ctx, 1_000_000, job, tallySink(), Options[*tally]{Workers: 4, Chunk: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Errorf("cancellation did not interrupt the batch (ran %d trials)", n)
	}
}

func TestAdaptiveStopIsDeterministic(t *testing.T) {
	const trials = 10_000
	job := mixJob(7)
	stop := func(prefix *tally, done int) bool {
		return done >= 500 && prefix.fails >= 20
	}
	var want *tally
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := Run(context.Background(), trials, job, tallySink(),
			Options[*tally]{Workers: workers, Chunk: 64, Stop: stop})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := got.fails
		for _, v := range got.counts {
			total += v
		}
		if total >= trials {
			t.Fatalf("workers=%d: stop rule never fired (%d trials)", workers, total)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: adaptive run differs from workers=1 run", workers)
		}
	}
}

func TestAdaptiveRunAbandonsBatchOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	job := JobFunc(func(t int, _ *sim.Arena) (sim.Result, error) {
		ran.Add(1)
		if t == 0 {
			return sim.Result{}, boom
		}
		return sim.Result{Output: 1}, nil
	})
	_, err := Run(context.Background(), 1_000_000, job, tallySink(),
		Options[*tally]{Workers: 4, Chunk: 8, Stop: func(*tally, int) bool { return false }})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The error must short-circuit chunk claiming, not let the other
	// workers grind through the remaining million trials.
	if n := ran.Load(); n > 10_000 {
		t.Errorf("ran %d trials after the first error; batch was not abandoned", n)
	}
}

func TestAdaptiveStopRunsToCompletionWhenRuleNeverFires(t *testing.T) {
	const trials = 300
	job := mixJob(3)
	want := sequentialBaseline(t, job, trials)
	got, err := Run(context.Background(), trials, job, tallySink(),
		Options[*tally]{Workers: 4, Chunk: 16, Stop: func(*tally, int) bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("non-firing adaptive run differs from sequential baseline")
	}
}
