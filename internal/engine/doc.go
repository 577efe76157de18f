// Package engine is the unified parallel Monte-Carlo trial runner behind
// every experiment in the reproduction. All bias estimates (the ε of
// Definition 2.3) are built from thousands of independent executions; the
// engine shards that embarrassingly parallel workload across workers while
// keeping the merged outcome bit-for-bit identical to a sequential run.
//
// # Design
//
//   - A ChunkJob runs a contiguous range of trials: it derives each
//     trial's seed (via sim.Mix64 from a base seed), plans any per-trial
//     deviation, executes on the worker's arena, and hands each sim.Result
//     to the engine in trial order.
//   - One in-order pool, InOrder, runs every batch and every
//     certification sweep: lanes claim indices in order from a shared
//     atomic cursor, and results fold in index order under one lock. A
//     batch's items are fixed-size chunks of trials (dynamic work stealing
//     of index ranges, no per-trial locking); a sweep's are candidates.
//   - Accumulation is per chunk: every chunk folds its results into a
//     fresh shard (e.g. a ring.Distribution) supplied by a Sink, and the
//     shards merge in chunk order at the pool's frontier. Because all
//     shard operations are sums of counters, the merged value is
//     independent of which worker ran which chunk — for a fixed base seed
//     the output is identical at any worker count. A regression test
//     enforces this.
//   - Every worker owns a sim.Arena, taken when the worker starts and
//     passed to each chunk it claims. Jobs run their executions through
//     the arena, so a batch of thousands of trials recycles a
//     near-constant amount of simulation memory per worker instead of
//     rebuilding networks, queues, and PRNGs per trial.
//   - Optional adaptive early stopping and progress observation run at
//     each frontier advance, on the merged prefix of chunks 0..i in chunk
//     order, so the stopping point and every observed prefix are also
//     independent of scheduling (see options.go).
//   - The context cancels the whole batch between chunks.
//
// # Invariants
//
//   - Determinism: for a fixed job and base seed, RunBatch's merged shard
//     is identical at every worker count (including 1); with a Stop rule,
//     the stopping point falls on a boundary of the fixed DefaultChunk
//     chunks and never depends on worker count or scheduling.
//   - Jobs must derive all per-trial randomness from the trial index;
//     sharing mutable state between trials breaks the determinism contract.
//   - Arenas never cross worker boundaries: a chunk receives the arena of
//     exactly the goroutine running it, and the engine folds each Result
//     into the chunk's shard before the same arena runs the next trial, so
//     Result memory recycled by the arena is never observed stale.
//   - Errors follow the sequential rule: a batch returns what a one-worker
//     run returns. A failing chunk ends the batch once every earlier chunk
//     has merged, unless the Stop rule fired first; no chunk past a known
//     failure is claimed, so the rest of the batch is never drained.
package engine
