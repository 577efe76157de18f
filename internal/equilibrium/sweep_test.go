package equilibrium

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// progressStep is the part of one Progress call a sweep pins for a fixed
// seed.
type progressStep struct {
	Index, Total, Trials int
	Gain, BestGain       float64
}

// recordProgress certifies sc and returns its Progress sequence, failing
// the test if two callbacks ever overlap.
func recordProgress(t *testing.T, sc scenario.Scenario, o Options) ([]progressStep, *Certificate) {
	t.Helper()
	var (
		steps  []progressStep
		inside atomic.Int32
	)
	o.Progress = func(p Progress) {
		if inside.Add(1) != 1 {
			t.Errorf("%s workers=%d: overlapping Progress callbacks at index %d", sc.Name, o.Workers, p.Index)
		}
		// Hold the callback open so an overlapping call would land in it.
		time.Sleep(time.Millisecond)
		steps = append(steps, progressStep{p.Index, p.Total, p.Trials, p.Gain, p.BestGain})
		inside.Add(-1)
	}
	cert, err := Certify(context.Background(), sc, 20180516, o)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", sc.Name, o.Workers, err)
	}
	return steps, cert
}

// TestProgressInEnumerationOrder pins the sweep's reporting contract: at
// any worker count, Progress reports every candidate once, in enumeration
// order, one call at a time, and with the same (Index, Trials, Gain,
// BestGain) sequence. It covers a many-candidate sweep, whose candidates
// run on concurrent lanes, and a one-candidate sweep, which keeps every
// worker on its single batch.
func TestProgressInEnumerationOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		// minCands bounds the sweep size from below, maxCands from above.
		minCands, maxCands int
	}{
		{"ring/phase-lead/attack=phase-rushing", Options{N: 64, Trials: 200, MinTrials: 64}, 9, 1 << 10},
		{"popproto/ss-ring-le/pairwise", Options{Trials: 400}, 1, 1},
	} {
		sc := scenario.MustFind(tc.name)
		var want []progressStep
		for _, workers := range []int{1, 2, 3, 8} {
			o := tc.opts
			o.Workers = workers
			got, cert := recordProgress(t, sc, o)
			m := len(cert.Candidates)
			if m < tc.minCands || m > tc.maxCands {
				t.Fatalf("%s: %d candidates, want %d..%d", tc.name, m, tc.minCands, tc.maxCands)
			}
			if len(got) != m {
				t.Fatalf("%s workers=%d: %d Progress calls for %d candidates", tc.name, workers, len(got), m)
			}
			for i, s := range got {
				c := cert.Candidates[i]
				if s.Index != i+1 || s.Total != m || s.Trials != c.Trials || s.Gain != c.Gain {
					t.Errorf("%s workers=%d: call %d reports %+v, candidate %d is %s with %d trials, gain %v",
						tc.name, workers, i, s, i+1, c.Candidate, c.Trials, c.Gain)
				}
			}
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Errorf("%s: Progress at workers=%d differs from workers=1:\n%+v\nvs\n%+v", tc.name, workers, got, want)
			}
		}
	}
}

// sweepGoroutines counts live goroutines running sweep lanes or engine
// workers.
func sweepGoroutines() int {
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
		if bytes.Contains(g, []byte("equilibrium.runInOrder")) || bytes.Contains(g, []byte("repro/internal/engine.")) {
			count++
		}
	}
	return count
}

// TestCertifyCancelMidSweep cancels a concurrent sweep from its first
// Progress callback, while other lanes are still running candidates:
// Certify returns ctx.Err(), reports nothing after the cancel, and leaves no
// lane or engine goroutine behind.
func TestCertifyCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	o := Options{N: 64, Workers: 3, Progress: func(Progress) {
		calls++
		cancel()
	}}
	cert, err := Certify(ctx, scenario.MustFind("ring/phase-lead/attack=phase-rushing"), 20180516, o)
	if cert != nil || !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("canceled sweep returned (%v, %v), want (nil, ctx.Err())", cert, err)
	}
	if calls != 1 {
		t.Errorf("%d Progress calls, want 1: nothing may report after the cancel", calls)
	}
	// A goroutine between its WaitGroup.Done and its exit is still listed
	// for an instant, so allow a short grace.
	deadline := time.Now().Add(time.Second)
	for n := sweepGoroutines(); n > 0; n = sweepGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d sweep goroutines outlived Certify", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunInOrderReportsLowestFailure drives the lane scheduler with
// synthetic candidates that finish in reverse order and fail at indices 3
// and 5: at every worker count the sweep returns candidate 3's error —
// what a sequential sweep returns — after reporting exactly candidates 0,
// 1 and 2 in order, and every measure call has returned by then.
func TestRunInOrderReportsLowestFailure(t *testing.T) {
	const m = 8
	for _, workers := range []int{1, 3, 8} {
		var active atomic.Int32
		measure := func(ctx context.Context, i, _ int) (CandidateResult, error) {
			active.Add(1)
			defer active.Add(-1)
			select {
			case <-time.After(time.Duration(m-i) * 5 * time.Millisecond):
			case <-ctx.Done():
			}
			if i == 3 || i == 5 {
				return CandidateResult{}, fmt.Errorf("candidate %d failed", i)
			}
			return CandidateResult{Trials: i}, nil
		}
		var reported []int
		err := runInOrder(context.Background(), m, workers, measure, func(i int, res CandidateResult) {
			if res.Trials != i {
				t.Errorf("workers=%d: report(%d) carries candidate %d's result", workers, i, res.Trials)
			}
			reported = append(reported, i)
		})
		if err == nil || err.Error() != "candidate 3 failed" {
			t.Errorf("workers=%d: error %v, want candidate 3's failure", workers, err)
		}
		if !slices.Equal(reported, []int{0, 1, 2}) {
			t.Errorf("workers=%d: reported %v, want [0 1 2]", workers, reported)
		}
		if n := active.Load(); n != 0 {
			t.Errorf("workers=%d: %d candidates still running after return", workers, n)
		}
	}
}

// TestRunInOrderCancelWaitsForLanes cancels a sweep whose lanes are blocked
// inside their candidates: runInOrder returns ctx.Err() only after every
// measure call has returned, and starts none afterwards.
func TestRunInOrderCancelWaitsForLanes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		active   atomic.Int32
		returned atomic.Bool
	)
	measure := func(mctx context.Context, i, _ int) (CandidateResult, error) {
		if returned.Load() {
			t.Errorf("candidate %d started after runInOrder returned", i)
		}
		active.Add(1)
		defer active.Add(-1)
		if i == 0 {
			return CandidateResult{}, nil
		}
		<-mctx.Done()
		time.Sleep(20 * time.Millisecond) // a batch finishing its last chunk
		return CandidateResult{}, mctx.Err()
	}
	reports := 0
	err := runInOrder(ctx, 6, 3, measure, func(int, CandidateResult) {
		reports++
		cancel()
	})
	returned.Store(true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if reports != 1 {
		t.Errorf("%d reports, want 1", reports)
	}
	if n := active.Load(); n != 0 {
		t.Fatalf("%d candidates still running after return", n)
	}
}

// TestRunInOrderSplitsWorkers pins the worker budget: with enough
// candidates each runs on one worker, fewer candidates split the budget,
// and a lone candidate gets all of it.
func TestRunInOrderSplitsWorkers(t *testing.T) {
	for _, tc := range []struct {
		m, workers int
		want       []int // allowed per-candidate worker counts
	}{
		{m: 10, workers: 4, want: []int{1}},
		{m: 4, workers: 4, want: []int{1}},
		{m: 3, workers: 8, want: []int{2, 3}},
		{m: 1, workers: 8, want: []int{8}},
	} {
		var (
			mu   sync.Mutex
			seen []int
		)
		measure := func(_ context.Context, _ int, w int) (CandidateResult, error) {
			mu.Lock()
			seen = append(seen, w)
			mu.Unlock()
			return CandidateResult{}, nil
		}
		if err := runInOrder(context.Background(), tc.m, tc.workers, measure, func(int, CandidateResult) {}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != tc.m {
			t.Errorf("m=%d workers=%d: %d candidates measured", tc.m, tc.workers, len(seen))
		}
		for _, w := range seen {
			if !slices.Contains(tc.want, w) {
				t.Errorf("m=%d workers=%d: a candidate ran on %d workers, want one of %v", tc.m, tc.workers, w, tc.want)
			}
		}
	}
}
