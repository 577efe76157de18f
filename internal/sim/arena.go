package sim

// Arena is a reusable per-worker simulation workspace. It owns one Network
// plus the scratch structures every trial needs (an edge set, a scheduler, a
// strategy slice) and recycles them across executions, so a worker that runs
// thousands of Monte-Carlo trials performs a near-constant number of
// allocations instead of rebuilding the simulation state per trial.
//
// Ownership rules:
//
//   - An Arena belongs to exactly one goroutine at a time; none of its
//     methods are safe for concurrent use. The trial engine gives each
//     worker its own arena.
//   - Everything returned by an arena method (the Network's Result, the
//     RingEdges slice, the Strategies scratch, the RandomScheduler) aliases
//     arena-owned memory and is invalidated by the arena's next Run /
//     RingEdges / Strategies / RandomScheduler call. Copy what must outlive
//     the trial (see Result.Clone). A value kept with Keep lives until a
//     Keep under another key replaces it.
//   - A nil *Arena is valid everywhere and means "do not recycle": every
//     method falls back to fresh allocations with identical results, so
//     code paths that run a single execution need no special casing.
//
// Determinism: an arena-run execution is bit-for-bit identical to a fresh
// one — Network.Reset reinstates initial state exactly, Context.Reseed and
// RandomScheduler.Reseed rewind the PRNGs to the streams fresh constructors
// would draw. The sim and scenario test suites enforce this equivalence
// property across every ring scenario.
type Arena struct {
	net       *Network
	ringEdges []Edge
	randSched *RandomScheduler
	strategy  []Strategy
	keptKey   any
	kept      any
}

// NewArena returns an empty arena. The zero value is also ready to use.
func NewArena() *Arena { return &Arena{} }

// Run executes cfg on the arena's recycled network, constructing it on the
// first call. On a nil arena it is equivalent to New followed by Run.
func (a *Arena) Run(cfg Config) (Result, error) {
	if a == nil || a.net == nil {
		net, err := New(cfg)
		if err != nil {
			return Result{}, err
		}
		if a != nil {
			a.net = net
		}
		return net.Run(), nil
	}
	if err := a.net.Reset(cfg); err != nil {
		// Reset validates before mutating, so the network still holds its
		// previous good configuration and stays reusable for the next Run.
		return Result{}, err
	}
	return a.net.Run(), nil
}

// RingEdges is RingEdges memoized on the arena: successive calls with the
// same n return the same slice without allocating. The slice is read-only
// for the caller and owned by the arena.
func (a *Arena) RingEdges(n int) []Edge {
	if a == nil {
		return RingEdges(n)
	}
	if len(a.ringEdges) != n {
		a.ringEdges = RingEdges(n)
	}
	return a.ringEdges
}

// RandomScheduler returns the arena's reseedable random scheduler, rewound
// to the given seed's choice sequence. One scheduler object serves a whole
// trial batch.
func (a *Arena) RandomScheduler(seed int64) *RandomScheduler {
	if a == nil {
		return NewRandomScheduler(seed)
	}
	if a.randSched == nil {
		a.randSched = NewRandomScheduler(seed)
	} else {
		a.randSched.Reseed(seed)
	}
	return a.randSched
}

// Strategies returns a nil-filled scratch slice of length n for assembling a
// strategy vector, recycled across trials. Callers must overwrite every slot
// before handing the slice to Run.
func (a *Arena) Strategies(n int) []Strategy {
	if a == nil {
		return make([]Strategy, n)
	}
	if cap(a.strategy) < n {
		a.strategy = make([]Strategy, n)
	}
	s := a.strategy[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// Keep returns the value the arena keeps under key, building and keeping it
// on a miss. An arena keeps one such value, so a different key replaces it;
// a failed build leaves the arena as it was. The key must be comparable.
// Keep lets a layer above sim park per-worker state that outlives one chunk
// of trials (ring's lane runners) on the worker's arena, and so across the
// jobs of an arena pool. On a nil arena it calls build every time.
func (a *Arena) Keep(key any, build func() (any, error)) (any, error) {
	if a == nil {
		return build()
	}
	if a.kept == nil || a.keptKey != key {
		v, err := build()
		if err != nil {
			return nil, err
		}
		a.keptKey, a.kept = key, v
	}
	return a.kept, nil
}
