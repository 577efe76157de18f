package engine

// DefaultChunk is the default number of trials per work unit. It is fixed —
// independent of worker count and machine — because the adaptive stopping
// rule fires at chunk boundaries: a chunk size derived from the environment
// would make the stopping point environment-dependent. 32 trials amortize
// the claim/merge overhead while keeping stopping granularity fine and tail
// latency low (a straggling worker holds at most one chunk).
const DefaultChunk = 32

// Options tunes one RunBatch. The zero value runs on runtime.NumCPU() workers
// with no early stopping. Every batch runs in chunks of DefaultChunk trials.
type Options[S any] struct {
	// Workers is the number of concurrent workers; 0 picks
	// runtime.NumCPU(). The merged result is identical for every value.
	Workers int
	// Stop, if non-nil, enables adaptive early stopping: it is called
	// with the merged prefix of chunks 0..i (in chunk order, under a
	// lock) and the number of trials that prefix holds, and returns true
	// to stop the batch after that prefix. The decision point depends
	// only on (base seed, trials) — never on worker count or
	// scheduling — so adaptive runs stay deterministic. Chunks already
	// completed beyond the stopping point are discarded.
	//
	// Use stats.WilsonInterval to build rules that stop once a rate
	// estimate is resolved to a target half-width.
	Stop func(prefix S, trials int) bool
	// Observe, if non-nil, receives the same deterministic prefixes a
	// Stop rule would see — the merge of chunks 0..i, in chunk order,
	// under a lock — without any power to stop the batch. It is the
	// progress hook behind streaming consumers (the service daemon's
	// NDJSON job streams): the sequence of snapshots depends only on
	// (base seed, trials), never on worker count or scheduling,
	// and the final call always covers the whole batch. The callback
	// must not retain prefix (it aliases the engine's merge target) and
	// should be cheap: it runs under the engine's merge lock.
	Observe func(prefix S, trials int)
	// Arenas, if non-nil, supplies worker arenas from a shared pool
	// instead of constructing fresh ones per RunBatch, and returns them
	// when the batch ends. A resident process that runs many batches points
	// them all at one pool so per-worker simulation workspaces persist
	// across jobs, not just across the trials of one job. Results are
	// identical with or without a pool. Nil means no pooling: workers
	// get fresh arenas, exactly the pre-pool behaviour (ArenaPool's
	// methods are nil-safe, so the engine calls them unconditionally).
	Arenas *ArenaPool
}
