package service

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/equilibrium"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/service/diskcache"
)

// JobRequest describes one unit of trial work: a registered scenario plus
// the overrides and seed that pin its result. Zero overrides keep the
// scenario's registered defaults, exactly as scenario.Opts does.
type JobRequest struct {
	// Scenario is the registered scenario name (see GET /scenarios).
	Scenario string `json:"scenario"`
	// N, Trials, K, and Target override the scenario defaults.
	N      int   `json:"n,omitempty"`
	Trials int   `json:"trials,omitempty"`
	K      int   `json:"k,omitempty"`
	Target int64 `json:"target,omitempty"`
	// Seed is the batch base seed; it is part of the job's identity.
	Seed int64 `json:"seed"`
}

// opts lowers the request onto scenario.Opts (identity-relevant fields
// only; the scheduler adds workers/arenas/progress at run time).
func (r JobRequest) opts() scenario.Opts {
	return scenario.Opts{N: r.N, Trials: r.Trials, K: r.K, Target: r.Target}
}

func (r JobRequest) ident() (string, int64) { return r.Scenario, r.Seed }

// key is the job's content address, scenario.JobKey.
func (r JobRequest) key(sc scenario.Scenario, version string) string {
	return sc.JobKey(version, r.Seed, r.opts())
}

// validate applies the submit-time checks that make batch rejection whole:
// the request's resolved parameters must pass the scenario's own run check
// (scenario.Scenario.Check, the one RunOpts applies) and its trial count
// must be bounded.
func (r JobRequest) validate(sc scenario.Scenario, maxTrials int) error {
	if err := sc.Check(r.opts()); err != nil {
		return err
	}
	if _, trials := sc.Resolve(r.opts()); trials > maxTrials {
		return fmt.Errorf("%s: %d trials exceeds the per-job bound %d", sc.Name, trials, maxTrials)
	}
	return nil
}

// Config tunes one daemon instance.
type Config struct {
	// Addr is the HTTP listen address; "" picks "127.0.0.1:8080".
	Addr string
	// Workers is the engine worker count per job run; 0 picks
	// runtime.NumCPU(). Results are identical for any value.
	Workers int
	// Parallel bounds the engine runs in flight on this node at once; 0
	// picks 2. Every engine run holds one of Parallel slots for its whole
	// duration: a trial chunk a local claimant runs, a chunk a worker
	// leased, and a certification sweep. Further work queues. It is also
	// the number of local claimants on a node that owns jobs, and on a
	// worker the number of claim loops; a worker starts no local
	// claimants.
	Parallel int
	// CacheBytes is the in-memory result cache's byte budget; 0 picks
	// DefaultCacheBytes. Each finished result is charged its length plus a
	// fixed per-record overhead (see Cache). The same budget, divided by
	// that overhead, caps the retained failed/canceled job records, so a
	// resident daemon's memory stays bounded either way.
	CacheBytes int64
	// CacheDir, when non-empty, backs the result cache with a crash-safe
	// disk tier rooted at this directory (see internal/service/diskcache).
	// The in-memory cache becomes a read-through layer over it: memory
	// misses fall through to disk, disk hits are promoted back into
	// memory, and every finished result is written through to both. The
	// directory may be shared by every node of a fleet and survives
	// restarts — a reopened daemon replays previously computed results
	// with zero engine runs.
	CacheDir string
	// MaxTrials bounds a single job's trial count; 0 picks
	// DefaultMaxTrials. A service must refuse a job that would occupy an
	// engine slot effectively forever.
	MaxTrials int
	// Version names the code revision in every job key; "" picks
	// BuildVersion(). Results computed by different versions never share
	// cache entries.
	Version string
	// Profiling mounts net/http/pprof under /debug/pprof/ so a running
	// daemon can be profiled in place (`go tool pprof .../debug/pprof/
	// profile`). Off by default: the endpoints expose stacks and timings
	// and belong behind an operator's explicit opt-in.
	Profiling bool
	// Role selects the node's fleet role. Every node splits its trial
	// jobs into chunks that its local claimants run and merges the shards
	// in chunk order. RoleSingle (default when empty) keeps the chunks to
	// itself; RoleCoordinator also leases them to workers at /chunks/*,
	// with results byte-identical to a single node at any fleet size;
	// RoleWorker joins a coordinator, claims its chunks and serves no jobs.
	Role string
	// Join is the coordinator base URL a RoleWorker node claims from
	// (e.g. "http://127.0.0.1:8080"). Required for workers, ignored
	// otherwise.
	Join string
	// FleetChunk is the trials per chunk a trial job is split into; 0
	// picks DefaultFleetChunk. Any value produces the same job results
	// (the merge is a counter sum). Smaller chunks spread better over a
	// fleet and free an engine slot sooner; larger ones amortize HTTP
	// round trips. Progress arrives once per merged chunk, and within the
	// first chunk at every engine prefix when a local claimant runs it.
	FleetChunk int
	// LeaseTTL is how long a claimed chunk stays leased without a
	// heartbeat before the coordinator re-issues it to another claimant;
	// 0 picks DefaultLeaseTTL.
	LeaseTTL time.Duration
}

// DefaultMaxTrials is the per-job trial ceiling used when Config leaves
// MaxTrials zero — generous next to any registered scenario default (≤ 400)
// while keeping one job from monopolizing an engine slot indefinitely.
const DefaultMaxTrials = 1_000_000

// BuildVersion returns the VCS revision baked into the running binary —
// with a "-dirty" suffix when the working tree had uncommitted changes, so
// two dirty builds of the same commit never share cache identities as if
// their physics were proven equal — or "dev" when no revision is recorded
// (go test, go run without VCS stamping). It is the default code-version
// component of every job key.
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	revision, modified := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if revision == "" {
		return "dev"
	}
	if modified {
		return revision + "-dirty"
	}
	return revision
}

// Scheduler accepts job batches, deduplicates them against in-flight and
// cached work, and multiplexes fresh jobs onto a bounded set of engine
// runs. One engine.ArenaPool is shared by every run it starts, so worker
// simulation workspaces persist for the scheduler's whole lifetime.
type Scheduler struct {
	cfg     Config
	version string
	cache   *Cache
	disk    *diskcache.Store // nil without Config.CacheDir
	fleet   *fleet           // the chunk queue every trial job runs through
	arenas  *engine.ArenaPool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}
	wg         sync.WaitGroup

	mu     sync.Mutex
	trials *lifecycle[JobRequest, scenario.Snapshot]     // POST /jobs
	sweeps *lifecycle[CertRequest, equilibrium.Progress] // POST /certify

	retiredCap int

	start      time.Time
	runsFresh  atomic.Int64 // jobs that required an engine run
	hitsCache  atomic.Int64 // jobs replayed from the cache or a finished twin
	hitsDedup  atomic.Int64 // jobs folded into an in-flight twin
	completed  atomic.Int64
	failed     atomic.Int64
	canceled   atomic.Int64
	trialsDone atomic.Int64
	busy       atomic.Int64
	diskErrs   atomic.Int64
}

// NewScheduler returns a running scheduler. Close releases it. The only
// failure mode is an unusable Config.CacheDir.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 2
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = DefaultMaxTrials
	}
	switch cfg.Role {
	case "", RoleSingle, RoleCoordinator, RoleWorker:
	default:
		return nil, fmt.Errorf("service: unknown role %q (want %s, %s, or %s)",
			cfg.Role, RoleSingle, RoleCoordinator, RoleWorker)
	}
	version := cfg.Version
	if version == "" {
		version = BuildVersion()
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		version:    version,
		arenas:     engine.NewArenaPool(),
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.Parallel),
		retiredCap: int(max(1, cfg.CacheBytes/entryOverhead)),
		start:      time.Now(),
	}
	s.trials = &lifecycle[JobRequest, scenario.Snapshot]{
		s:    s,
		noun: "job",
		run:  s.runTrials,
		live: make(map[string]*Job),
	}
	s.sweeps = &lifecycle[CertRequest, equilibrium.Progress]{
		s:     s,
		noun:  "cert",
		label: "certification ",
		run:   s.runCert,
		live:  make(map[string]*CertJob),
	}
	s.cache = NewCache(cfg.CacheBytes)
	if cfg.CacheDir != "" {
		disk, err := diskcache.Open(cfg.CacheDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("service: %w", err)
		}
		s.disk = disk
	}
	// A worker's claim loop lives at the Server layer (it speaks HTTP);
	// the chunk queue is the same on every node.
	s.fleet = newFleet(s)
	return s, nil
}

// slot waits for one of the Parallel engine slots and returns its
// release. Every engine run on the node holds one for its whole duration,
// and busy counts only here. It fails with ctx's cause if ctx ends first.
func (s *Scheduler) slot(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	s.busy.Add(1)
	return func() {
		s.busy.Add(-1)
		<-s.sem
	}, nil
}

// cachePut stores finished result bytes in both tiers and drops the job
// records of any entries the memory insert evicted, so the cache and the
// job maps cannot disagree about what is replayable. Trial jobs and
// certificates share one cache — their content addresses live in disjoint
// key spaces — so one sweep covers both maps. The eviction keys come back
// as a return value from Cache.Put and are applied here under s.mu: no
// scheduler state is ever touched under the cache's internal lock, so the
// two locks can never deadlock against each other.
func (s *Scheduler) cachePut(key string, b []byte) {
	s.mu.Lock()
	s.memPutLocked(key, b)
	s.mu.Unlock()
	if s.disk != nil {
		// The disk write happens outside s.mu — it is durable-tier
		// bookkeeping, not shared-map state, and fsync latency must not
		// stall submissions. A failed write only narrows future replay.
		if err := s.disk.Put(key, b); err != nil {
			s.diskErrs.Add(1)
		}
	}
}

// memPutLocked inserts into the in-memory tier and applies its eviction
// bookkeeping. Callers hold s.mu.
func (s *Scheduler) memPutLocked(key string, b []byte) {
	for _, old := range s.cache.Put(key, b) {
		delete(s.trials.live, old)
		delete(s.sweeps.live, old)
	}
}

// cacheGetLocked is the read-through lookup: the in-memory tier first,
// then the disk tier, promoting disk hits back into memory so repeated
// replays stay off the filesystem. Callers hold s.mu. Disk read errors
// degrade to misses (and count in Stats.Disk.Errors): a flaky cache
// directory costs recomputation, never wrong bytes.
func (s *Scheduler) cacheGetLocked(key string) ([]byte, bool) {
	if b, ok := s.cache.Get(key); ok {
		return b, true
	}
	if s.disk == nil {
		return nil, false
	}
	b, ok, err := s.disk.Get(key)
	if err != nil {
		s.diskErrs.Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	s.memPutLocked(key, b)
	return b, true
}

// Version returns the code-version component of this scheduler's job keys.
func (s *Scheduler) Version() string { return s.version }

// Submit registers a batch of job requests and returns one *Job per
// request, in order. Identical requests — in this batch, in flight from
// earlier batches, or already cached — resolve to the same job. The batch
// is rejected whole if any request names an unknown scenario or resolves
// to invalid parameters (size below the scenario's minimum, non-positive
// or over-bound trials), so a typo cannot half-run a batch. Attack-plan
// feasibility (coalition sizes) is still a run-time concern: those
// failures surface as a failed job, not a rejected batch.
func (s *Scheduler) Submit(reqs []JobRequest) ([]*Job, error) { return s.trials.submit(reqs) }

// SubmitCerts registers a batch of certification requests and returns one
// *CertJob per request, in order, with exactly the dedup and whole-batch
// rejection semantics of Submit.
func (s *Scheduler) SubmitCerts(reqs []CertRequest) ([]*CertJob, error) {
	return s.sweeps.submit(reqs)
}

// Job returns the job with the given content address.
func (s *Scheduler) Job(id string) (*Job, bool) { return s.trials.lookup(id) }

// Cert returns the certification job with the given content address.
func (s *Scheduler) Cert(id string) (*CertJob, bool) { return s.sweeps.lookup(id) }

// Cancel cancels a queued or running job. It reports whether a cancelation
// was delivered; terminal and unknown jobs return false.
//
// Jobs are content-addressed, so a cancelation reaches every submitter of
// the identical request: deduped watchers observe status "canceled" and
// must resubmit (which schedules a fresh run) if they still want the
// result. That is deliberate — the job's identity, not its first
// submitter, owns the computation.
func (s *Scheduler) Cancel(id string) bool { return s.trials.cancel(id) }

// CancelCert cancels a queued or running certification job, with the same
// content-addressed semantics as Cancel.
func (s *Scheduler) CancelCert(id string) bool { return s.sweeps.cancel(id) }

// Close cancels every in-flight job and waits for their goroutines. The
// scheduler accepts no further submissions afterwards. The cancel happens
// under s.mu: Submit holds the lock from its closed-check through its last
// wg.Add, so Close can never start waiting on a counter a racing Submit is
// about to bump from zero.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.baseCancel()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats is the daemon's operational snapshot, served by /statz.
type Stats struct {
	// Version is the job-key code version.
	Version string `json:"version"`
	// UptimeSeconds is the scheduler's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Scenarios is the registry size.
	Scenarios int `json:"scenarios"`
	// Jobs counts submissions by resolution; Certificates is the subset
	// that were certification sweeps.
	Jobs struct {
		Submitted    int64 `json:"submitted"`
		Certificates int64 `json:"certificates"`
		Fresh        int64 `json:"fresh"`
		Completed    int64 `json:"completed"`
		Failed       int64 `json:"failed"`
		Canceled     int64 `json:"canceled"`
		InFlight     int64 `json:"in_flight"`
	} `json:"jobs"`
	// Cache reports the job-level hit accounting: Hits counts
	// submissions resolved without an engine run (cache replays plus
	// in-flight dedup joins), Misses counts submissions that required
	// one. HitRate is Hits/(Hits+Misses). Entries and Bytes are the
	// in-memory tier's result count and charged bytes (never above
	// Config.CacheBytes unless one result alone exceeds it);
	// LookupHits/LookupMisses count its probes by key, which a replay of a
	// finished job still held by the scheduler does not make.
	Cache struct {
		Hits         int64   `json:"hits"`
		DedupHits    int64   `json:"dedup_hits"`
		Misses       int64   `json:"misses"`
		HitRate      float64 `json:"hit_rate"`
		Entries      int     `json:"entries"`
		Bytes        int64   `json:"bytes"`
		LookupHits   int64   `json:"lookup_hits"`
		LookupMisses int64   `json:"lookup_misses"`
	} `json:"cache"`
	// Disk reports the durable cache tier (zero value when no CacheDir is
	// configured). Hits/Misses count read-through probes that reached the
	// disk tier; Writes counts entries this process persisted; Errors
	// counts I/O failures that degraded to misses or dropped writes.
	Disk struct {
		Enabled bool  `json:"enabled"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Writes  int64 `json:"writes"`
		Errors  int64 `json:"errors"`
	} `json:"disk"`
	// Fleet reports the node's role and its chunk queue: queued, leased
	// and the claims waiting for work are instantaneous, the rest
	// cumulative. Every node splits its own trial jobs into chunks, so a
	// single node counts enqueued and completed chunks too; ChunksLeased,
	// RemoteClaims and Reissued count leases to workers, which only a
	// coordinator grants. On a worker, Claimed, Done and Errors cover its
	// claim loop.
	Fleet struct {
		Role            string `json:"role"`
		ChunkTrials     int    `json:"chunk_trials,omitempty"`
		LeaseTTLMillis  int64  `json:"lease_ttl_ms,omitempty"`
		ChunksQueued    int    `json:"chunks_queued,omitempty"`
		ChunksLeased    int    `json:"chunks_leased,omitempty"`
		ClaimsWaiting   int    `json:"claims_waiting,omitempty"`
		ChunksEnqueued  int64  `json:"chunks_enqueued,omitempty"`
		ChunksCompleted int64  `json:"chunks_completed,omitempty"`
		Reissued        int64  `json:"reissued,omitempty"`
		RemoteClaims    int64  `json:"remote_claims,omitempty"`
		Claimed         int64  `json:"claimed,omitempty"`
		Done            int64  `json:"done,omitempty"`
		Errors          int64  `json:"errors,omitempty"`
	} `json:"fleet"`
	// Workers reports engine-run concurrency and arena reuse.
	Workers struct {
		Parallel        int     `json:"parallel"`
		PerJob          int     `json:"per_job"`
		Busy            int64   `json:"busy"`
		Utilization     float64 `json:"utilization"`
		ArenasAllocated int     `json:"arenas_allocated"`
		ArenasIdle      int     `json:"arenas_idle"`
	} `json:"workers"`
	// Trials reports cumulative trial throughput.
	Trials struct {
		Completed int64   `json:"completed"`
		PerSecond float64 `json:"per_second"`
	} `json:"trials"`
	// Lanes reports ring.LaneBlocks: the lane executions that ring chunk
	// jobs ran, and how many of them diverged and reran scalar. The counts
	// are process-wide, so they include every scheduler and every other
	// caller of the ring chunk jobs in the process, and they cover ring
	// chunk jobs only: the committee's lane blocks do not count.
	Lanes struct {
		Blocks   int64 `json:"blocks"`
		Diverged int64 `json:"diverged"`
	} `json:"lanes"`
}

// Stats captures the scheduler's current counters.
func (s *Scheduler) Stats() Stats {
	var st Stats
	st.Version = s.version
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.Scenarios = len(scenario.All())

	st.Jobs.Certificates = s.sweeps.submitted.Load()
	st.Jobs.Submitted = s.trials.submitted.Load() + st.Jobs.Certificates
	st.Jobs.Fresh = s.runsFresh.Load()
	st.Jobs.Completed = s.completed.Load()
	st.Jobs.Failed = s.failed.Load()
	st.Jobs.Canceled = s.canceled.Load()
	st.Jobs.InFlight = st.Jobs.Fresh - st.Jobs.Completed - st.Jobs.Failed - st.Jobs.Canceled

	cacheHits, dedupHits := s.hitsCache.Load(), s.hitsDedup.Load()
	st.Cache.Hits = cacheHits + dedupHits
	st.Cache.DedupHits = dedupHits
	st.Cache.Misses = st.Jobs.Fresh
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
	}
	st.Cache.Entries = s.cache.Len()
	st.Cache.Bytes = s.cache.Bytes()
	st.Cache.LookupHits, st.Cache.LookupMisses = s.cache.Lookups()

	if s.disk != nil {
		st.Disk.Enabled = true
		st.Disk.Hits, st.Disk.Misses, st.Disk.Writes = s.disk.Stats()
		st.Disk.Errors = s.diskErrs.Load()
	}

	st.Fleet.Role = s.cfg.Role
	if st.Fleet.Role == "" {
		st.Fleet.Role = RoleSingle
	}
	f := s.fleet
	st.Fleet.ChunkTrials = f.chunkSize
	st.Fleet.LeaseTTLMillis = f.ttl.Milliseconds()
	f.mu.Lock()
	st.Fleet.ChunksQueued = len(f.queue)
	st.Fleet.ChunksLeased = len(f.leased)
	st.Fleet.ClaimsWaiting = f.waiting
	f.mu.Unlock()
	st.Fleet.ChunksEnqueued = f.enqueued.Load()
	st.Fleet.ChunksCompleted = f.completed.Load()
	st.Fleet.Reissued = f.reissued.Load()
	st.Fleet.RemoteClaims = f.remote.Load()

	st.Workers.Parallel = s.cfg.Parallel
	st.Workers.PerJob = s.cfg.Workers
	st.Workers.Busy = s.busy.Load()
	st.Workers.Utilization = float64(st.Workers.Busy) / float64(s.cfg.Parallel)
	st.Workers.ArenasAllocated = s.arenas.Allocated()
	st.Workers.ArenasIdle = s.arenas.Idle()

	st.Trials.Completed = s.trialsDone.Load()
	if up := st.UptimeSeconds; up > 0 {
		st.Trials.PerSecond = float64(st.Trials.Completed) / up
	}
	st.Lanes.Blocks, st.Lanes.Diverged = ring.LaneBlocks()
	return st
}
