package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/scenario"
)

// workerPollInterval is the shortest time between two waiting claims of
// an idle claimant. A coordinator parks a waiting claim until work
// arrives, so only one that answers it at once (an older build, which
// ignores the wait flag) sees claims this often.
const workerPollInterval = 150 * time.Millisecond

// workerRetryInterval is the back-off after a claim transport error or a
// version mismatch; both are conditions that need operator time, not a
// hot retry loop.
const workerRetryInterval = time.Second

// Worker is a fleet worker node's claim loop: it claims chunk leases from
// its coordinator, runs each leased trial range through the exact
// deterministic shard path a local run uses, heartbeats while running,
// and reports the shard distribution back. Workers hold no job state —
// if one dies, its leases expire and the coordinator re-issues the chunks.
type Worker struct {
	s      *Scheduler
	join   string
	node   string
	client *http.Client

	claimed atomic.Int64
	done    atomic.Int64
	errs    atomic.Int64
}

// newWorker wires a claim loop to the scheduler's lifetime and starts
// cfg.Parallel claimant goroutines.
func newWorker(s *Scheduler) *Worker {
	host, _ := os.Hostname()
	w := &Worker{
		s:      s,
		join:   s.cfg.Join,
		node:   fmt.Sprintf("%s-%d", host, os.Getpid()),
		client: &http.Client{Timeout: 30 * time.Second}, // must exceed claimWait
	}
	for i := 0; i < s.cfg.Parallel; i++ {
		s.wg.Add(1)
		go w.loop()
	}
	return w
}

// Counters returns the worker's cumulative claim-loop counters.
func (w *Worker) Counters() (claimed, done, errs int64) {
	return w.claimed.Load(), w.done.Load(), w.errs.Load()
}

// loop is one claimant: claim, run, report, forever. It exits when the
// scheduler closes, which also cancels a claim parked on the coordinator.
//
// The first claim, and the first after an error, is the join handshake: it
// does not wait, so a version mismatch or an unreachable coordinator shows
// at once. Every later claim waits on the coordinator for work. A 204 that
// came back sooner than workerPollInterval to a waiting claim means the
// coordinator does not park claims, so the loop paces itself instead.
func (w *Worker) loop() {
	defer w.s.wg.Done()
	ctx := w.s.baseCtx
	wait := false
	for ctx.Err() == nil {
		sent := time.Now()
		lease, err := w.claim(ctx, wait)
		switch {
		case ctx.Err() != nil:
			// Closed mid-claim: the canceled request is no error.
		case err != nil:
			w.errs.Add(1)
			wait = false
			sleepCtx(ctx, workerRetryInterval)
		case lease == nil:
			if wait {
				sleepCtx(ctx, workerPollInterval-time.Since(sent))
			}
			wait = true
		default:
			wait = true
			w.claimed.Add(1)
			w.runLease(ctx, lease)
		}
	}
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// claim asks the coordinator for one chunk, letting it park the claim
// until work arrives when wait is set. It returns (nil, nil) when no work
// came and (nil, err) on transport errors or a version mismatch.
func (w *Worker) claim(ctx context.Context, wait bool) (*ChunkLease, error) {
	body, _ := json.Marshal(ClaimRequest{Version: w.s.version, Node: w.node, Wait: wait})
	resp, err := w.post(ctx, "/chunks/claim", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusConflict:
		return nil, fmt.Errorf("service: version mismatch with coordinator %s", w.join)
	case http.StatusOK:
		var lease ChunkLease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			return nil, fmt.Errorf("service: bad lease: %w", err)
		}
		return &lease, nil
	default:
		return nil, fmt.Errorf("service: claim: coordinator returned %s", resp.Status)
	}
}

// runLease executes one leased chunk on an engine slot and reports its
// shard. A heartbeat goroutine keeps the lease alive at a third of its
// TTL, also while the chunk waits for the slot; a 410 from the coordinator
// (lease re-issued, job canceled) cancels the run — the work no longer has
// a recipient.
func (w *Worker) runLease(ctx context.Context, lease *ChunkLease) {
	sc, ok := scenario.Find(lease.Job.Scenario)
	if !ok {
		w.errs.Add(1)
		w.report(ctx, ChunkResult{Lease: lease.Lease,
			Error: fmt.Sprintf("worker has no scenario %q", lease.Job.Scenario)})
		return
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	beat := time.Duration(lease.TTLMilli) * time.Millisecond / 3
	if beat <= 0 {
		beat = DefaultLeaseTTL / 3
	}
	go func() {
		ticker := time.NewTicker(beat)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if !w.heartbeat(runCtx, lease.Lease) {
					cancel()
					return
				}
			}
		}
	}()

	release, err := w.s.slot(runCtx)
	var dist *ring.Distribution
	if err == nil {
		o := lease.Job.opts()
		o.Workers = w.s.cfg.Workers
		o.Arenas = w.s.arenas
		dist, err = sc.RunShard(runCtx, lease.Job.Seed, o, lease.Start, lease.End)
		release()
	}
	if err != nil {
		w.errs.Add(1)
		if runCtx.Err() != nil {
			// Canceled: the lease is gone; nothing to report.
			return
		}
		w.report(ctx, ChunkResult{Lease: lease.Lease, Error: err.Error()})
		return
	}
	if w.report(ctx, ChunkResult{Lease: lease.Lease, Dist: dist}) {
		w.done.Add(1)
	}
}

// heartbeat extends the lease; false means the lease is gone.
func (w *Worker) heartbeat(ctx context.Context, lease int64) bool {
	body, _ := json.Marshal(ChunkHeartbeat{Lease: lease})
	resp, err := w.post(ctx, "/chunks/heartbeat", body)
	if err != nil {
		// Transport trouble is not lease loss: keep running; the next
		// beat (or the result post) retries, and the lease survives up
		// to a full TTL without one.
		return true
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// report delivers a chunk result, retrying transport errors a few times —
// the shard is minutes of compute and the coordinator may be mid-restart.
// It reports whether the coordinator accepted the result.
func (w *Worker) report(ctx context.Context, res ChunkResult) bool {
	body, _ := json.Marshal(res)
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			sleepCtx(ctx, workerRetryInterval)
		}
		resp, err := w.post(ctx, "/chunks/result", body)
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			continue
		}
		accepted := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if accepted || resp.StatusCode == http.StatusGone {
			return accepted
		}
	}
	w.errs.Add(1)
	return false
}

// post sends one JSON request to the coordinator.
func (w *Worker) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.join+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.client.Do(req)
}
