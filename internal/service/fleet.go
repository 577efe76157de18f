package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/scenario"
)

// Node roles. Every node that owns jobs splits its trial jobs into chunks
// that its own local claimants run. A single node keeps them to itself; a
// coordinator also leases them to workers over HTTP; a worker owns no
// jobs, runs no local claimants and only claims chunks from the
// coordinator it joined.
const (
	RoleSingle      = "single"
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// DefaultFleetChunk is the trials-per-chunk used when Config leaves
// FleetChunk zero: small enough that a medium batch spreads across a
// 3-node fleet, large enough that per-chunk HTTP overhead stays a rounding
// error next to the engine work. A job of at most this many trials is one
// chunk, whose engine prefixes stream as its progress.
const DefaultFleetChunk = 512

// DefaultLeaseTTL is the chunk lease lifetime used when Config leaves
// LeaseTTL zero. A worker heartbeats at a third of this, so three missed
// beats mark it dead and its chunks get re-issued.
const DefaultLeaseTTL = 5 * time.Second

// claimWait bounds how long a claim with Wait set is parked on the
// coordinator before it is answered 204. It must stay below the claimant's
// HTTP client timeout (30 s), or an idle worker's claims would fail.
const claimWait = 10 * time.Second

// ClaimRequest is the POST /chunks/claim payload: the claimant announces
// its code version (chunk results computed by a different build must never
// fold into a job's distribution) and a display name for stats. With Wait
// set, a claim that finds the queue empty is parked until a chunk is
// queued, for at most claimWait; without it the coordinator answers at
// once, which is what a claimant needs for its join handshake.
type ClaimRequest struct {
	Version string `json:"version"`
	Node    string `json:"node,omitempty"`
	Wait    bool   `json:"wait,omitempty"`
}

// ChunkLease answers a successful claim: one trial range of one job,
// leased to the claimant until TTL expires. The embedded JobRequest is
// everything a worker needs to reproduce the exact sub-batch — scenario,
// overrides, and the batch base seed; per-trial seeds derive from the
// logical indices in [Start, End).
type ChunkLease struct {
	Lease    int64      `json:"lease"`
	Job      JobRequest `json:"job"`
	Start    int        `json:"start"`
	End      int        `json:"end"`
	TTLMilli int64      `json:"ttl_ms"`
}

// ChunkResult is the POST /chunks/result payload: the shard distribution
// of the leased range, or the error that prevented it.
type ChunkResult struct {
	Lease int64              `json:"lease"`
	Dist  *ring.Distribution `json:"dist,omitempty"`
	Error string             `json:"error,omitempty"`
}

// ChunkHeartbeat is the POST /chunks/heartbeat payload; a beat extends the
// lease by one TTL. A 410 response tells the claimant its lease is gone —
// the job was canceled or the lease expired and was re-issued — and the
// run should be abandoned.
type ChunkHeartbeat struct {
	Lease int64 `json:"lease"`
}

// fleetTask is one trial job split into chunks: its chunk results and the
// chunk-order merge frontier. Results merge into merged strictly in chunk
// index order — exactly the order the engine folds its own chunk stream —
// so every progress snapshot is a deterministic prefix of the batch and
// the final distribution is byte-identical to RunOpts at any fleet size.
type fleetTask struct {
	job  *Job
	sc   scenario.Scenario
	opts scenario.Opts

	total    int                  // resolved trial count
	chunks   int                  // total chunk count
	results  []*ring.Distribution // per chunk index, nil until reported
	frontier int                  // chunks merged into merged so far
	merged   *ring.Distribution

	done    chan struct{} // closed when merged covers the batch or the task dies
	err     error         // first chunk failure, set before done closes
	aborted bool
}

// fleetChunk is one trial range of a task.
type fleetChunk struct {
	task       *fleetTask
	index      int
	start, end int
	lease      int64 // current lease id; 0 unless leased to a worker
	expires    time.Time
}

// fleet is a node's chunk exchange: a queue of unclaimed chunks, the lease
// table of chunks out with workers, and the merge state of every trial
// job. Locking: f.mu is leaf-level — nothing under it takes s.mu or a
// job's mu. Scheduler methods may call into fleet while holding no locks.
type fleet struct {
	s         *Scheduler
	chunkSize int
	ttl       time.Duration

	mu        sync.Mutex
	wake      chan struct{} // closed and replaced when queue gains work
	queue     []*fleetChunk
	leased    map[int64]*fleetChunk
	nextLease int64
	waiting   int // claimants parked on wake

	enqueued  atomic.Int64 // chunks created
	completed atomic.Int64 // chunk results folded in
	reissued  atomic.Int64 // leases reclaimed from dead claimants
	remote    atomic.Int64 // claims granted over HTTP
}

// newFleet builds the node's chunk exchange and starts its goroutines:
// one janitor that reclaims expired leases even when no claim traffic
// arrives and, on a node that owns jobs, cfg.Parallel local claimants,
// which drain every job on a node with no workers. A worker enqueues
// nothing, so it starts none.
func newFleet(s *Scheduler) *fleet {
	f := &fleet{
		s:         s,
		chunkSize: s.cfg.FleetChunk,
		ttl:       s.cfg.LeaseTTL,
		leased:    make(map[int64]*fleetChunk),
		wake:      make(chan struct{}),
	}
	if f.chunkSize <= 0 {
		f.chunkSize = DefaultFleetChunk
	}
	if f.ttl <= 0 {
		f.ttl = DefaultLeaseTTL
	}
	s.wg.Add(1)
	go f.janitor()
	if s.cfg.Role == RoleWorker {
		return f
	}
	for i := 0; i < s.cfg.Parallel; i++ {
		s.wg.Add(1)
		go f.localClaimant()
	}
	return f
}

// janitor periodically reclaims expired leases, even when every claimant
// is parked and no claim traffic arrives.
func (f *fleet) janitor() {
	defer f.s.wg.Done()
	ticker := time.NewTicker(f.ttl / 2)
	defer ticker.Stop()
	for {
		select {
		case <-f.s.baseCtx.Done():
			return
		case <-ticker.C:
			f.mu.Lock()
			f.reclaimExpiredLocked()
			f.mu.Unlock()
		}
	}
}

// wakeLocked wakes every waiting claim. Callers hold f.mu.
func (f *fleet) wakeLocked() {
	close(f.wake)
	f.wake = make(chan struct{})
}

// enqueue decomposes one fresh job into chunks and returns its task;
// runTrials waits on task.done.
func (f *fleet) enqueue(j *Job, sc scenario.Scenario, opts scenario.Opts) *fleetTask {
	n, total := sc.Resolve(opts)
	task := &fleetTask{
		job:    j,
		sc:     sc,
		opts:   opts,
		total:  total,
		merged: ring.NewDistribution(n),
		done:   make(chan struct{}),
	}
	task.chunks = (total + f.chunkSize - 1) / f.chunkSize
	task.results = make([]*ring.Distribution, task.chunks)

	f.mu.Lock()
	for i, start := 0, 0; start < total; i, start = i+1, start+f.chunkSize {
		end := start + f.chunkSize
		if end > total {
			end = total
		}
		f.queue = append(f.queue, &fleetChunk{task: task, index: i, start: start, end: end})
	}
	f.enqueued.Add(int64(task.chunks))
	f.wakeLocked()
	f.mu.Unlock()
	return task
}

// reclaimExpiredLocked sweeps the lease table: expired chunks of live
// tasks rejoin the queue under a fresh claim, waking waiting claims;
// chunks of dead tasks are dropped. Callers hold f.mu.
func (f *fleet) reclaimExpiredLocked() {
	now := time.Now()
	requeued := false
	for id, c := range f.leased {
		if now.Before(c.expires) {
			continue
		}
		delete(f.leased, id)
		c.lease = 0
		if !c.task.aborted {
			f.queue = append(f.queue, c)
			f.reissued.Add(1)
			requeued = true
		}
	}
	if requeued {
		f.wakeLocked()
	}
}

// liveLocked drops the chunks of dead tasks from the head of the queue
// and reports whether a live chunk remains. Callers hold f.mu.
func (f *fleet) liveLocked() bool {
	for len(f.queue) > 0 && f.queue[0].task.aborted {
		f.queue[0] = nil
		f.queue = f.queue[1:]
	}
	return len(f.queue) > 0
}

// popLocked removes and returns the next live queued chunk, or nil when
// none is queued. Callers hold f.mu.
func (f *fleet) popLocked() *fleetChunk {
	if !f.liveLocked() {
		return nil
	}
	c := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	return c
}

// wait is the one parking path of local and HTTP claimants: it reclaims
// expired leases and reports whether a live chunk is queued, without
// taking it. With none queued it waits until a chunk is queued, the
// scheduler closes or ctx ends, reporting false in the last two cases; a
// ctx that has already ended makes it a single non-blocking look at the
// queue. A local claimant takes the chunk only once it holds an engine
// slot, so a chunk does not wait behind a busy node while a worker idles.
func (f *fleet) wait(ctx context.Context) bool {
	closing := f.s.baseCtx
	f.mu.Lock()
	defer f.mu.Unlock()
	for closing.Err() == nil {
		f.reclaimExpiredLocked()
		if f.liveLocked() {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		wake := f.wake
		f.waiting++
		f.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		case <-closing.Done():
		}
		f.mu.Lock()
		f.waiting--
	}
	return false
}

// claimRemote leases one chunk to an HTTP claimant, waiting up to wait
// for one to be queued, or returns nil when none came. ctx is the
// claimant's request: a claimant that has hung up takes no chunk, so none
// sits idle for a full TTL under a lease nobody holds. A granted lease
// starts its job.
func (f *fleet) claimRemote(ctx context.Context, wait time.Duration) *ChunkLease {
	waitCtx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	for f.wait(waitCtx) {
		f.mu.Lock()
		if ctx.Err() != nil {
			f.mu.Unlock()
			return nil
		}
		c := f.popLocked()
		if c == nil {
			f.mu.Unlock()
			continue // another claimant took it first
		}
		f.nextLease++
		c.lease = f.nextLease
		c.expires = time.Now().Add(f.ttl)
		f.leased[c.lease] = c
		lease := &ChunkLease{
			Lease:    c.lease,
			Job:      c.task.job.Req,
			Start:    c.start,
			End:      c.end,
			TTLMilli: f.ttl.Milliseconds(),
		}
		f.mu.Unlock()
		f.remote.Add(1)
		c.task.job.start()
		return lease
	}
	return nil
}

// heartbeat extends a live lease by one TTL. It reports false when the
// lease is unknown — expired and re-issued, or the job is gone — which
// tells the claimant to abandon the run.
func (f *fleet) heartbeat(lease int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.leased[lease]
	if !ok || c.task.aborted {
		return false
	}
	c.expires = time.Now().Add(f.ttl)
	return true
}

// report resolves a lease with its shard result or error. Unknown leases
// (expired and re-issued, canceled jobs) report held false and the result
// is dropped — the lease table is what makes re-issued chunks merge exactly
// once. A malformed result (see check) is never merged: it fails the job
// with an error naming the chunk, which report also returns.
func (f *fleet) report(lease int64, dist *ring.Distribution, errMsg string) (held bool, bad error) {
	f.mu.Lock()
	c, ok := f.leased[lease]
	delete(f.leased, lease)
	f.mu.Unlock()
	if !ok {
		return false, nil
	}
	bad = c.check(dist, errMsg)
	err := bad
	if err == nil && errMsg != "" {
		err = errors.New(errMsg)
	}
	f.fold(c, dist, err)
	return true, bad
}

// check vets a claimant's result for the chunk before it is folded: it
// carries either a shard or an error, and a shard is a distribution of
// exactly the chunk's trials on the job's ring size
// (ring.Distribution.Validate). A shard that fails it would fold wrong
// bytes into a cached result, or panic in Merge under f.mu.
func (c *fleetChunk) check(dist *ring.Distribution, errMsg string) error {
	var err error
	switch {
	case dist == nil && errMsg == "":
		err = errors.New("result carries neither a shard nor an error")
	case dist != nil && errMsg != "":
		err = errors.New("result carries both a shard and an error")
	case dist != nil:
		// merged.N is set when the task is built and never written again.
		err = dist.Validate(c.task.merged.N, c.end-c.start)
	}
	if err != nil {
		return fmt.Errorf("chunk %d, trials [%d, %d): malformed result: %w", c.index, c.start, c.end, err)
	}
	return nil
}

// fold merges one finished chunk's shard into its task, or fails the
// whole task with the chunk's error: partial batches are never cached or
// served. A chunk of a dead task is dropped.
func (f *fleet) fold(c *fleetChunk, dist *ring.Distribution, err error) {
	f.mu.Lock()
	t := c.task
	if t.aborted {
		f.mu.Unlock()
		return
	}
	if err != nil {
		f.failTaskLocked(t, err)
		f.mu.Unlock()
		return
	}
	t.results[c.index] = dist
	f.completed.Add(1)
	// Advance the chunk-order merge frontier as far as contiguous results
	// allow. Merging in index order — never arrival order — is what keeps
	// the progress stream and any partial observation deterministic; the
	// final totals are order-independent anyway (counter sums). A merge
	// that would overflow a counter fails the task.
	for t.frontier < t.chunks && t.results[t.frontier] != nil {
		if err := t.merged.Merge(t.results[t.frontier]); err != nil {
			start := t.frontier * f.chunkSize
			f.failTaskLocked(t, fmt.Errorf("chunk %d, trials [%d, %d): %w",
				t.frontier, start, min(start+f.chunkSize, t.total), err))
			f.mu.Unlock()
			return
		}
		t.results[t.frontier] = nil
		t.frontier++
	}
	frontierTrials := t.merged.Trials
	finished := t.frontier == t.chunks
	if finished {
		close(t.done)
	}
	// Snapshot while still holding f.mu: the next reporter's frontier
	// advance mutates t.merged, so reading it outside the lock races.
	var snap scenario.Snapshot
	publish := frontierTrials > 0 && !finished
	if publish {
		snap = scenario.NewSnapshot(t.merged, frontierTrials, t.total)
	}
	f.mu.Unlock()

	// Progress accounting outside f.mu: job.mu and the scheduler counter
	// are leaves of their own. The snapshot mirrors the engine's Progress
	// callback: a deterministic chunk-ordered prefix.
	if publish {
		t.job.publish(f.s, snap, frontierTrials)
	}
}

// failTaskLocked kills a task that has neither finished nor failed yet:
// queued chunks die lazily via the aborted flag, in-flight leases are
// dropped so late results bounce, and done closes exactly once. Callers
// hold f.mu.
func (f *fleet) failTaskLocked(t *fleetTask, err error) {
	if t.aborted || t.frontier == t.chunks {
		return
	}
	t.aborted = true
	t.err = err
	for id, c := range f.leased {
		if c.task == t {
			delete(f.leased, id)
		}
	}
	close(t.done)
}

// localClaimant is the node's in-process claim loop: wait for a queued
// chunk, take an engine slot, then pop a chunk, run and fold it. Taking
// the slot before the chunk leaves the chunk on the queue for an idle
// worker while every slot here is busy. It shares the scheduler's arena
// pool and worker count with every other engine run on the node.
func (f *fleet) localClaimant() {
	defer f.s.wg.Done()
	ctx := f.s.baseCtx
	for f.wait(ctx) {
		release, err := f.s.slot(ctx)
		if err != nil {
			return
		}
		f.mu.Lock()
		c := f.popLocked()
		f.mu.Unlock()
		if c != nil {
			f.runLocal(c)
		}
		release()
	}
}

// runLocal runs one popped chunk in-process on the caller's engine slot.
// The chunk that starts at trial 0 streams the engine's prefix snapshots
// as the job's progress, so a job of one chunk still reports progress
// before it ends.
func (f *fleet) runLocal(c *fleetChunk) {
	j := c.task.job
	j.start()
	o := c.task.opts
	o.Workers = f.s.cfg.Workers
	o.Arenas = f.s.arenas
	if c.start == 0 {
		o.Progress = func(snap scenario.Snapshot) { j.publish(f.s, snap, snap.Done) }
	}
	dist, err := c.task.sc.RunShard(j.ctx, j.Req.Seed, o, c.start, c.end)
	f.fold(c, dist, err)
}

// runTrials is the trial work: decompose the job into chunks, wait for the
// chunk-order merge to cover the batch, and summarize it. The final
// frontier advance publishes no progress, so the merged total is published
// here, once the outcome exists; the task is finished by then, so merged
// is quiescent and safe to read without f.mu.
func (s *Scheduler) runTrials(j *Job, sc scenario.Scenario) (any, error) {
	opts := j.Req.opts()
	f := s.fleet
	task := f.enqueue(j, sc, opts)
	select {
	case <-task.done:
	case <-j.ctx.Done():
	}
	f.mu.Lock()
	f.failTaskLocked(task, context.Cause(j.ctx)) // a job that ended first kills its task
	err, merged := task.err, task.merged
	f.mu.Unlock()
	switch {
	case j.ctx.Err() != nil:
		return nil, context.Cause(j.ctx)
	case err != nil:
		return nil, err
	}
	out := sc.OutcomeFromDist(merged, opts)
	j.publish(s, scenario.NewSnapshot(merged, task.total, task.total), task.total)
	return out, nil
}
