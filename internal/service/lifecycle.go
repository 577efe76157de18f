package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states. Queued and running jobs are in flight; done,
// failed, and canceled are terminal.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// A trial batch and a certification sweep are two payloads of one
// content-addressed job record moving through one lifecycle. The two
// instantiations keep the names the API has always used.
type (
	// Job is one scheduled trial batch (POST /jobs). Its identity is its
	// content address (scenario.JobKey): two requests with the same key
	// are the same job.
	Job = record[JobRequest, scenario.Snapshot]
	// JobState is a trial batch's wire state; its progress is the
	// engine's running snapshot.
	JobState = wireState[scenario.Snapshot]
	// CertJob is one scheduled certification sweep (POST /certify), keyed
	// by its certificate's content address (equilibrium.Key).
	CertJob = record[CertRequest, equilibrium.Progress]
	// CertState is a sweep's wire state; its progress is the last
	// finished deviation candidate.
	CertState = wireState[equilibrium.Progress]
)

// request is a job request as the shared lifecycle sees it. Each payload's
// request type implements it; the methods are the parts of submission
// that differ between payloads.
type request interface {
	// ident names the registered scenario and the seed that pins the
	// result.
	ident() (scenario string, seed int64)
	// validate applies the submit-time checks against the resolved
	// scenario and the daemon's per-job trial bound.
	validate(sc scenario.Scenario, maxTrials int) error
	// key is the request's content address under a code version.
	key(sc scenario.Scenario, version string) string
}

// wireState is a job's wire representation at one instant: what GET
// /jobs/{id} and GET /certify/{id} return and what each NDJSON watch line
// carries. Result holds the exact cached bytes of the job's value, so byte
// identity survives the round trip through the API.
type wireState[P any] struct {
	ID       string          `json:"id"`
	Scenario string          `json:"scenario"`
	Seed     int64           `json:"seed"`
	Status   JobStatus       `json:"status"`
	Cached   bool            `json:"cached,omitempty"`
	Deduped  int             `json:"deduped,omitempty"`
	Progress *P              `json:"progress,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// record is one scheduled job: R is its request type, P the type of the
// progress points it streams. Its mutable state is its wire state, which
// State copies out under mu.
type record[R request, P any] struct {
	// ID is the job's content address.
	ID string
	// Req is the request that first created the job.
	Req R

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	st       wireState[P]
	lastDone int // trials the published progress covers
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *record[R, P]) Done() <-chan struct{} { return j.done }

// State captures the job's current wire state. Progress and Result are
// shared with the record and must be treated as read-only.
func (j *record[R, P]) State() wireState[P] {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// finish moves the job to a terminal state exactly once.
func (j *record[R, P]) finish(status JobStatus, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.Status.Terminal() {
		return
	}
	j.st.Status = status
	j.st.Result = result
	j.st.Error = errMsg
	close(j.done)
}

// start marks a queued job running: its first engine run has begun.
func (j *record[R, P]) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.Status == StatusQueued {
		j.st.Status = StatusRunning
	}
}

// publish records a progress point covering done trials and credits the
// newly covered trials to the scheduler's throughput counter. The first
// chunk's engine snapshots, chunk-merge frontier snapshots and finished
// certificate candidates all arrive here. Racing chunk reporters can
// deliver a stale prefix; it must never regress the stream, so it is
// dropped.
func (j *record[R, P]) publish(s *Scheduler, p P, done int) {
	j.mu.Lock()
	if done < j.lastDone {
		j.mu.Unlock()
		return
	}
	j.st.Progress = &p // a fresh copy: points already handed out never change
	delta := done - j.lastDone
	j.lastDone = done
	j.mu.Unlock()
	s.trialsDone.Add(int64(delta))
}

// join folds a resubmission into j: a done job replays its result and an
// in-flight one gains a deduplicated submitter. It reports false for a
// failed or canceled job, which the submitter replaces with a fresh run
// under the same identity.
func (j *record[R, P]) join(s *Scheduler) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.st.Status == StatusDone:
		s.hitsCache.Add(1)
	case !j.st.Status.Terminal():
		s.hitsDedup.Add(1)
		j.st.Deduped++
	default:
		return false
	}
	return true
}

// work computes a fresh job's value (an outcome, a certificate), which
// execute marshals and caches. It runs on the job's context, takes the
// engine slots its runs need, marks the job running once the first one
// starts, and publishes progress through the record.
type work[R request, P any] func(*record[R, P], scenario.Scenario) (any, error)

// lifecycle is the content-addressed job lifecycle of one payload: submit,
// execute, retire, lookup and cancel. Beyond its request type's methods, a
// payload supplies only run and the two texts its errors name it by.
// Scheduler.mu guards live and retired.
type lifecycle[R request, P any] struct {
	s *Scheduler
	// noun names one request in submit errors ("job 3: …"); label
	// prefixes "batch" and "job" in the empty-batch and HTTP error texts.
	noun, label string
	// run is the payload's work for a fresh job.
	run work[R, P]

	submitted atomic.Int64
	live      map[string]*record[R, P]
	retired   []*record[R, P] // failed/canceled records, oldest first, capped at retiredCap
}

// submit registers a batch of requests and returns one record per request,
// in order. Identical requests — in this batch, in flight from earlier
// batches, or already cached — resolve to the same record. The batch is
// rejected whole if any request names an unknown scenario or fails its
// validation, so a typo cannot half-run a batch.
func (l *lifecycle[R, P]) submit(reqs []R) ([]*record[R, P], error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("service: empty %sbatch", l.label)
	}
	s := l.s
	// Validate every request before creating any job.
	scs := make([]scenario.Scenario, len(reqs))
	for i, req := range reqs {
		name, _ := req.ident()
		sc, ok := scenario.Find(name)
		if !ok {
			return nil, fmt.Errorf("service: %s %d: no registered scenario %q", l.noun, i, name)
		}
		if err := req.validate(sc, s.cfg.MaxTrials); err != nil {
			return nil, fmt.Errorf("service: %s %d: %w", l.noun, i, err)
		}
		scs[i] = sc
	}
	out := make([]*record[R, P], len(reqs))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseCtx.Err() != nil {
		return nil, errors.New("service: scheduler is closed")
	}
	for i, req := range reqs {
		l.submitted.Add(1)
		id := req.key(scs[i], s.version)
		if j, ok := l.live[id]; ok && j.join(s) {
			// A replay of a finished job is a use of its cache entry
			// (a no-op for an in-flight one, which has none yet).
			s.cache.Touch(id)
			out[i] = j
			continue
		}
		// New, failed or canceled: replay the cache or schedule a fresh
		// run under this identity.
		b, cached := s.cacheGetLocked(id)
		name, seed := req.ident()
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := &record[R, P]{
			ID:     id,
			Req:    req,
			ctx:    ctx,
			cancel: cancel,
			done:   make(chan struct{}),
			st:     wireState[P]{ID: id, Scenario: name, Seed: seed, Status: StatusQueued},
		}
		l.live[id] = j
		out[i] = j
		if cached {
			j.st.Cached, j.st.Status, j.st.Result = true, StatusDone, b
			close(j.done)
			j.cancel() // born terminal: release the context immediately
			s.hitsCache.Add(1)
			continue
		}
		s.runsFresh.Add(1)
		s.wg.Add(1)
		go l.execute(j, scs[i])
	}
	return out, nil
}

// execute runs one fresh job to a terminal state. The work waits for its
// own engine slots, so a job canceled while it waits ends canceled. The
// job's value is marshaled once: done results are cached, failed and
// canceled records retire.
func (l *lifecycle[R, P]) execute(j *record[R, P], sc scenario.Scenario) {
	s := l.s
	defer s.wg.Done()
	defer j.cancel() // release the context once the job is terminal
	v, err := l.run(j, sc)
	// Decided before marshaling: a marshal error fails the job even when
	// its context has been canceled since the work returned.
	canceled := err != nil && (errors.Is(err, context.Canceled) || j.ctx.Err() != nil)
	var b []byte
	if err == nil {
		b, err = json.Marshal(v)
	}
	switch {
	case canceled:
		s.canceled.Add(1)
		j.finish(StatusCanceled, nil, err.Error())
		l.retire(j)
	case err != nil:
		s.failed.Add(1)
		j.finish(StatusFailed, nil, err.Error())
		l.retire(j)
	default:
		s.cachePut(j.ID, b)
		s.completed.Add(1)
		j.finish(StatusDone, b, "")
	}
}

// retire records a failed or canceled job in the bounded terminal list;
// beyond the cap the oldest retired record is dropped from the live map
// (unless a fresh run has already replaced it under the same identity).
// Done jobs are instead governed by the cache's eviction.
func (l *lifecycle[R, P]) retire(j *record[R, P]) {
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	l.retired = append(l.retired, j)
	for len(l.retired) > s.retiredCap {
		old := l.retired[0]
		l.retired[0] = nil
		l.retired = l.retired[1:]
		if l.live[old.ID] == old {
			delete(l.live, old.ID)
		}
	}
}

// lookup returns the job with the given content address.
func (l *lifecycle[R, P]) lookup(id string) (*record[R, P], bool) {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	j, ok := l.live[id]
	return j, ok
}

// cancel cancels a queued or running job. It reports whether a cancelation
// was delivered; terminal and unknown jobs return false.
func (l *lifecycle[R, P]) cancel(id string) bool {
	j, ok := l.lookup(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	terminal := j.st.Status.Terminal()
	j.mu.Unlock()
	if terminal {
		return false
	}
	j.cancel()
	return true
}
