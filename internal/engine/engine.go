package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// ChunkJob produces the trials of a Monte-Carlo batch a contiguous
// work-claim chunk at a time: the engine hands a whole [start, end) range
// to one worker so per-trial overheads — strategy-vector construction,
// scheduler setup, bounds validation — amortize across the chunk.
// Implementations must be safe for concurrent use on distinct ranges.
// Determinism across worker counts and chunk sizes requires that every
// per-trial result depend only on the trial index (derive per-trial
// randomness from it with sim.Mix64, never from shared mutable state).
type ChunkJob interface {
	// RunChunk runs trials [start, end) in ascending order on the worker's
	// arena, calling add exactly once per completed trial, in trial order.
	// On failure it returns the error (the engine ignores the int, by
	// convention the failing trial's index); results added before the
	// failure are discarded with the batch.
	//
	// arena is the calling worker's recycled simulation workspace: run the
	// trials' executions through it (sim.Arena.Run, ring.RunArena, …) and
	// the batch stays near-allocation-free. It is never shared between
	// workers, and jobs that do not build sim networks simply ignore it.
	// A Result passed to add may alias arena memory: the engine folds it
	// into the chunk's shard before add returns, and sinks must not retain
	// the Result's slices.
	RunChunk(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error)
}

// ChunkFunc adapts a function to the ChunkJob interface.
type ChunkFunc func(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error)

// RunChunk implements ChunkJob.
func (f ChunkFunc) RunChunk(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
	return f(start, end, arena, add)
}

// Sink tells the engine how to accumulate results into per-chunk shards of
// type S and merge them. All three functions must be deterministic; Add and
// Merge must commute (counter sums do), which is what makes the merged
// result independent of the chunk size.
type Sink[S any] struct {
	// New allocates an empty shard.
	New func() S
	// Add folds one trial result into a shard. It is never called
	// concurrently on the same shard.
	Add func(S, sim.Result)
	// Merge folds src into dst. Called under the engine's merge lock, in
	// chunk order.
	Merge func(dst, src S)
}

// RunBatch executes trials trials of job on opts.Workers workers and
// returns the merged shard. It is InOrder over the batch's chunks of
// DefaultChunk trials: each chunk folds into its own shard, and the shards
// merge in chunk order. So the merged shard is identical for every worker
// count, and the Stop rule and the Observe hook see the same prefixes
// (chunks 0..i) whichever workers ran which chunks. Chunks completed
// beyond a stopping point are discarded, failures included. Errors and
// cancellation follow InOrder: the result is what a sequential run
// returns. Cancellation is observed between chunks.
func RunBatch[S any](ctx context.Context, trials int, job ChunkJob, sink Sink[S], opts Options[S]) (S, error) {
	merged := sink.New()
	if trials <= 0 {
		return merged, nil
	}
	const chunk = DefaultChunk
	// Each lane owns one arena for the duration of the batch, and one add
	// closure that folds into the shard of its current chunk. With
	// opts.Arenas the arena outlives the batch on the shared pool.
	var arenas []*sim.Arena
	defer func() {
		for _, a := range arenas {
			opts.Arenas.Put(a)
		}
	}()
	lane := func(int) func(context.Context, int) (S, error) {
		arena := opts.Arenas.Get()
		arenas = append(arenas, arena)
		var shard S
		add := func(res sim.Result) { sink.Add(shard, res) }
		return func(_ context.Context, c int) (S, error) {
			shard = sink.New()
			_, err := job.RunChunk(c*chunk, min((c+1)*chunk, trials), arena, add)
			return shard, err
		}
	}
	fold := func(c int, shard S) bool {
		sink.Merge(merged, shard)
		prefix := min((c+1)*chunk, trials)
		if opts.Observe != nil {
			opts.Observe(merged, prefix)
		}
		return opts.Stop != nil && opts.Stop(merged, prefix)
	}
	if err := InOrder(ctx, (trials+chunk-1)/chunk, opts.Workers, lane, fold); err != nil {
		var zero S
		return zero, err
	}
	return merged, nil
}

// outcome is one finished InOrder item, parked until the frontier folds it.
type outcome[T any] struct {
	v     T
	err   error
	ready bool
}

// InOrder runs items 0..m-1 on up to workers lanes (0 picks
// runtime.NumCPU()) and folds their results in index order: the one ordered
// pool behind every engine batch and every certification sweep. run(lane)
// is called once per lane, on the calling goroutine before any lane starts,
// and returns the function that lane runs its items with. Lanes claim
// indices in ascending order, and the calling goroutine is lane 0, so a
// one-lane call starts no goroutine. fold(i, v) runs once items 0..i have
// all finished, under one lock; returning true stops the call after item i.
//
// The result is what a sequential loop returns. A stop or an item's error
// ends the call when the frontier of folded items reaches it, so items past
// a stop are discarded, failures included. After ctx is canceled nothing
// more is folded and ctx.Err() is returned. The context handed to items is
// canceled once the outcome is known, so items in flight past it can give
// up early; InOrder returns only after every lane has.
func InOrder[T any](ctx context.Context, m, workers int,
	run func(lane int) func(ctx context.Context, i int) (T, error),
	fold func(i int, v T) (stop bool)) error {
	if m <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	lanes := make([]func(context.Context, int) (T, error), min(workers, m))
	for l := range lanes {
		lanes[l] = run(l)
	}
	itemCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64 // next unclaimed index
		end      atomic.Int64 // lanes claim no index at or past end
		wg       sync.WaitGroup
		mu       sync.Mutex // guards everything below and every fold call
		got      = make([]outcome[T], m)
		frontier = 0     // items [0, frontier) folded
		finished = false // the frontier reached the last item, a stop or a failure
		err      error   // the failure the frontier reached
	)
	end.Store(int64(m))
	work := func(item func(context.Context, int) (T, error)) {
		for {
			i := int(next.Add(1)) - 1
			if int64(i) >= end.Load() || ctx.Err() != nil {
				return
			}
			v, e := item(itemCtx, i)
			mu.Lock()
			got[i] = outcome[T]{v, e, true}
			if e != nil && int64(i) < end.Load() {
				// Indices are claimed in order, so every unclaimed item
				// lies past this failure: none of them can be folded.
				end.Store(int64(i) + 1)
			}
			for !finished && got[frontier].ready && ctx.Err() == nil {
				err = got[frontier].err
				finished = err != nil || fold(frontier, got[frontier].v) || frontier == m-1
				got[frontier] = outcome[T]{} // release
				frontier++
			}
			if finished {
				end.Store(0)
				cancel()
			}
			mu.Unlock()
		}
	}
	wg.Add(len(lanes) - 1)
	for _, item := range lanes[1:] {
		go func() {
			defer wg.Done()
			work(item)
		}()
	}
	work(lanes[0])
	wg.Wait()
	if !finished {
		return ctx.Err()
	}
	return err
}
