package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRunBatchFailurePastStopIsNoFailure pins the sequential rule for a
// stopped batch: the Stop rule fires at the first chunk boundary, and every
// trial from 64 on fails, so a sequential run never reaches a failure.
// Trial 0 is slow, so at four workers chunks 2 and 3 fail before chunk 0
// merges; the batch must still return chunk 0's 32 trials and no error.
func TestRunBatchFailurePastStopIsNoFailure(t *testing.T) {
	boom := errors.New("boom")
	job := trialJob(func(tr int, _ *sim.Arena) (sim.Result, error) {
		if tr == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		if tr >= 64 {
			return sim.Result{}, fmt.Errorf("trial %d: %w", tr, boom)
		}
		return sim.Result{Output: int64(tr % 3)}, nil
	})
	want := sequentialBaseline(t, job, 32)
	for _, workers := range []int{1, 4} {
		got, err := RunBatch(context.Background(), 1000, job.chunks(), tallySink(), Options[*tally]{
			Workers: workers,
			Stop:    func(*tally, int) bool { return true },
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v, want nil: the failures lie past the stopping point", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: stopped batch differs from its first chunk", workers)
		}
	}
}

// reverseItems returns an InOrder run whose item i finishes after
// (m-i)·5 ms, or as soon as its context is canceled, so items finish in
// reverse index order on enough lanes; the items in fail return an error.
func reverseItems(m int, active *atomic.Int32, fail ...int) func(int) func(context.Context, int) (int, error) {
	return func(int) func(context.Context, int) (int, error) {
		return func(ctx context.Context, i int) (int, error) {
			active.Add(1)
			defer active.Add(-1)
			select {
			case <-time.After(time.Duration(m-i) * 5 * time.Millisecond):
			case <-ctx.Done():
			}
			if slices.Contains(fail, i) {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		}
	}
}

// TestInOrderLowestFailureWins: items 3 and 5 fail, later items finish
// first, and at every lane count the call returns item 3's error after
// folding exactly items 0, 1 and 2, with every item returned.
func TestInOrderLowestFailureWins(t *testing.T) {
	const m = 8
	for _, workers := range []int{1, 3, 8} {
		var active atomic.Int32
		var folded []int
		err := InOrder(context.Background(), m, workers, reverseItems(m, &active, 3, 5), func(i, v int) bool {
			if v != i {
				t.Errorf("workers=%d: fold(%d) carries item %d's result", workers, i, v)
			}
			folded = append(folded, i)
			return false
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Errorf("workers=%d: err = %v, want item 3's failure", workers, err)
		}
		if !slices.Equal(folded, []int{0, 1, 2}) {
			t.Errorf("workers=%d: folded %v, want [0 1 2]", workers, folded)
		}
		if n := active.Load(); n != 0 {
			t.Errorf("workers=%d: %d items still running after return", workers, n)
		}
	}
}

// TestInOrderFailurePastStopIsNoFailure: fold stops after item 1, and item
// 2 fails before item 0 finishes. The call returns nil, as a sequential
// loop would, having folded items 0 and 1 only.
func TestInOrderFailurePastStopIsNoFailure(t *testing.T) {
	const m = 6
	for _, workers := range []int{1, 3, 6} {
		var active atomic.Int32
		var folded []int
		err := InOrder(context.Background(), m, workers, reverseItems(m, &active, 2, 4), func(i, _ int) bool {
			folded = append(folded, i)
			return i == 1
		})
		if err != nil {
			t.Errorf("workers=%d: err = %v, want nil", workers, err)
		}
		if !slices.Equal(folded, []int{0, 1}) {
			t.Errorf("workers=%d: folded %v, want [0 1]", workers, folded)
		}
		if n := active.Load(); n != 0 {
			t.Errorf("workers=%d: %d items still running after return", workers, n)
		}
	}
}

// poolGoroutines counts live goroutines running InOrder lanes.
func poolGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("repro/internal/engine.InOrder")) {
			count++
		}
	}
	return count
}

// TestInOrderCancelFoldsNothingMore cancels the call from its first fold
// while the other lanes sit inside their items: nothing more is folded, the
// call returns ctx.Err() only after every item has returned, and no lane
// goroutine outlives it.
func TestInOrderCancelFoldsNothingMore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		active   atomic.Int32
		returned atomic.Bool
	)
	run := func(int) func(context.Context, int) (int, error) {
		return func(ictx context.Context, i int) (int, error) {
			if returned.Load() {
				t.Errorf("item %d started after InOrder returned", i)
			}
			active.Add(1)
			defer active.Add(-1)
			if i == 0 {
				// Fold only once items 1 and 2 are in flight.
				for deadline := time.Now().Add(time.Second); active.Load() < 3 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				return 0, nil
			}
			<-ictx.Done()
			time.Sleep(20 * time.Millisecond) // an item finishing its last step
			return i, nil
		}
	}
	folds := 0
	err := InOrder(ctx, 6, 3, run, func(int, int) bool {
		folds++
		cancel()
		return false
	})
	returned.Store(true)
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err()", err)
	}
	if folds != 1 {
		t.Errorf("%d folds, want 1: nothing may fold after the cancel", folds)
	}
	if n := active.Load(); n != 0 {
		t.Fatalf("%d items still running after return", n)
	}
	// A goroutine between its WaitGroup.Done and its exit is still listed
	// for an instant, so allow a short grace.
	deadline := time.Now().Add(time.Second)
	for n := poolGoroutines(); n > 0; n = poolGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d lanes outlived InOrder", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutineID returns the calling goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}

// TestInOrderOneLaneStartsNoGoroutine: with one worker, or one item, the
// calling goroutine runs every item and fold, and the goroutine count does
// not grow.
func TestInOrderOneLaneStartsNoGoroutine(t *testing.T) {
	caller := goroutineID()
	for _, tc := range []struct{ m, workers int }{{5, 1}, {1, 4}} {
		before := runtime.NumGoroutine()
		check := func(what string) {
			if id := goroutineID(); id != caller {
				t.Errorf("m=%d workers=%d: %s ran on goroutine %s, not the caller's %s", tc.m, tc.workers, what, id, caller)
			}
			// Goroutines of earlier tests may still be exiting, so only
			// an increase counts.
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("m=%d workers=%d: %d goroutines during %s, %d before the call", tc.m, tc.workers, n, what, before)
			}
		}
		lanes := 0
		run := func(int) func(context.Context, int) (int, error) {
			lanes++
			return func(_ context.Context, i int) (int, error) {
				check("an item")
				return i, nil
			}
		}
		folded := 0
		err := InOrder(context.Background(), tc.m, tc.workers, run, func(int, int) bool {
			check("fold")
			folded++
			return false
		})
		if err != nil || lanes != 1 || folded != tc.m {
			t.Errorf("m=%d workers=%d: err=%v, %d lanes, %d folds; want nil, 1, %d", tc.m, tc.workers, err, lanes, folded, tc.m)
		}
	}
}
