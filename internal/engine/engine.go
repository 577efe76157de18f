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
	// On failure it returns the failing trial's index with the error;
	// results added before the failure are discarded with the batch.
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

// trialError is an error annotated with the index of the trial that raised
// it, so the engine can report the lowest-indexed failure deterministically.
type trialError struct {
	trial int
	err   error
}

// RunBatch executes trials trials of job on opts.Workers workers and
// returns the merged shard. Workers claim whole chunks of opts.Chunk
// trials, each folded into its own shard, and the shards merge in chunk
// order as a frontier of completed chunks advances. So the merged shard
// is identical for every worker count, and the Stop rule and the Observe
// hook see the same prefixes (chunks 0..i) whichever workers ran which
// chunks. Chunks completed beyond a stopping point are discarded: wasted
// work, never nondeterminism.
//
// On error, the batch is abandoned and the lowest-indexed failure observed
// is returned (jobs whose errors depend only on configuration, not the
// trial index — the common case — therefore report deterministically); on
// context cancellation, ctx.Err() is returned. Cancellation is observed
// between chunks; a chunk in flight runs to completion first.
func RunBatch[S any](ctx context.Context, trials int, job ChunkJob, sink Sink[S], opts Options[S]) (S, error) {
	merged := sink.New()
	if trials <= 0 {
		return merged, nil
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	numChunks := (trials + chunk - 1) / chunk
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, numChunks)
	var (
		cursor   atomic.Int64
		stopAt   atomic.Int64 // first chunk index NOT to run; numChunks = no stop
		wg       sync.WaitGroup
		mu       sync.Mutex // guards everything below, merged and the hooks
		results  = make([]S, numChunks)
		done     = make([]bool, numChunks)
		frontier = 0 // chunks [0, frontier) merged into merged
		firstER  *trialError
	)
	stopAt.Store(int64(numChunks))
	work := func() {
		// Each worker owns one arena for the duration of the batch, and
		// one add closure that folds into the shard of its current chunk.
		// With opts.Arenas the arena outlives the batch on the shared pool.
		arena := opts.Arenas.Get()
		defer opts.Arenas.Put(arena)
		var shard S
		add := func(res sim.Result) { sink.Add(shard, res) }
		for {
			c := int(cursor.Add(1)) - 1
			if int64(c) >= stopAt.Load() || ctx.Err() != nil {
				return
			}
			shard = sink.New()
			t, err := job.RunChunk(c*chunk, min((c+1)*chunk, trials), arena, add)
			mu.Lock()
			if err != nil {
				if firstER == nil || t < firstER.trial {
					firstER = &trialError{trial: t, err: err}
				}
				stopAt.Store(0) // abandon the batch: no worker claims another chunk
				mu.Unlock()
				return
			}
			results[c], done[c] = shard, true
			// Advance the frontier over consecutive completed chunks:
			// merge each into the prefix and evaluate the hooks at its
			// boundary, in chunk order.
			for frontier < int(stopAt.Load()) && done[frontier] {
				sink.Merge(merged, results[frontier])
				var zero S
				results[frontier] = zero // release
				frontier++
				prefix := min(frontier*chunk, trials)
				if opts.Observe != nil {
					opts.Observe(merged, prefix)
				}
				if opts.Stop != nil && opts.Stop(merged, prefix) {
					stopAt.Store(int64(frontier))
				}
			}
			mu.Unlock()
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the calling goroutine is worker 0
	wg.Wait()
	if err := ctx.Err(); err != nil {
		var zero S
		return zero, err
	}
	if firstER != nil {
		var zero S
		return zero, firstER.err
	}
	return merged, nil
}
