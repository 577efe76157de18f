package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// directBytes computes the reference result for a job the way a bare
// single-node engine run would, bypassing the service entirely.
func directBytes(t *testing.T, req JobRequest) []byte {
	t.Helper()
	sc, ok := scenario.Find(req.Scenario)
	if !ok {
		t.Fatalf("no scenario %q", req.Scenario)
	}
	out, err := sc.RunOpts(context.Background(), req.Seed, req.opts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitResult submits req and waits for its terminal state.
func waitResult(t *testing.T, client *Client, req JobRequest) JobState {
	t.Helper()
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// TestFleetCoordinatorAloneByteIdentity pins the tentpole invariant at
// fleet size one: a coordinator with no workers (local claimants only)
// produces bytes identical to a bare engine run, across chunk sizes that
// do and do not divide the batch.
func TestFleetCoordinatorAloneByteIdentity(t *testing.T) {
	req := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 500, Seed: 77}
	want := directBytes(t, req)
	for _, chunk := range []int{1000, 100, 33} {
		cfg := Config{Version: "fleet-one", Role: RoleCoordinator, FleetChunk: chunk}
		srv, client := newTestServer(t, cfg)
		final := waitResult(t, client, req)
		if final.Status != StatusDone {
			t.Fatalf("chunk %d: job ended %s: %s", chunk, final.Status, final.Error)
		}
		if !bytes.Equal(final.Result, want) {
			t.Fatalf("chunk %d: fleet result differs from single-node bytes", chunk)
		}
		st := srv.Scheduler().Stats()
		if st.Fleet.Role != RoleCoordinator {
			t.Fatalf("role = %q", st.Fleet.Role)
		}
		wantChunks := (500 + chunk - 1) / chunk
		if st.Fleet.ChunksCompleted != int64(wantChunks) {
			t.Fatalf("chunk %d: completed %d chunks, want %d", chunk, st.Fleet.ChunksCompleted, wantChunks)
		}
	}
}

// TestFleetChunkProtocol drives the coordinator's /chunks endpoints as a
// remote worker would: version gating, claim, shard execution through
// RunShard, result delivery, and the rejection of bogus leases.
func TestFleetChunkProtocol(t *testing.T) {
	cfg := Config{Version: "fleet-proto", Role: RoleCoordinator, FleetChunk: 40, Parallel: 1}
	srv, client := newTestServer(t, cfg)
	base := client.BaseURL()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Empty queue: a claim with the right version gets 204.
	resp := post("/chunks/claim", ClaimRequest{Version: srv.Scheduler().Version()})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("claim on empty queue = %d, want 204", resp.StatusCode)
	}
	resp.Body.Close()

	// Version mismatch is a hard 409 regardless of queue state.
	resp = post("/chunks/claim", ClaimRequest{Version: "other-build"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched claim = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Bogus lease ids bounce with 410.
	resp = post("/chunks/result", ChunkResult{Lease: 999999})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("bogus result = %d, want 410", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post("/chunks/heartbeat", ChunkHeartbeat{Lease: 999999})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("bogus heartbeat = %d, want 410", resp.StatusCode)
	}
	resp.Body.Close()

	// Submit a job and work as a protocol-level claimant alongside the
	// coordinator's local claimants: claim, run the exact leased range,
	// report. Whoever wins each chunk, the merged bytes must equal the
	// bare engine run.
	req := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 400, Seed: 31}
	want := directBytes(t, req)
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	for {
		resp := post("/chunks/claim", ClaimRequest{Version: srv.Scheduler().Version(), Node: "test-claimant"})
		if resp.StatusCode == http.StatusNoContent {
			resp.Body.Close()
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("claim = %d", resp.StatusCode)
		}
		var lease ChunkLease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sc, _ := scenario.Find(lease.Job.Scenario)
		dist, err := sc.RunShard(context.Background(), lease.Job.Seed, lease.Job.opts(), lease.Start, lease.End)
		if err != nil {
			t.Fatal(err)
		}
		rr := post("/chunks/result", ChunkResult{Lease: lease.Lease, Dist: dist})
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("result = %d", rr.StatusCode)
		}
		rr.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatal("mixed local/remote chunks broke byte identity")
	}
}

// TestFleetDeadClaimantReissue pins the crash-recovery path: a claimant
// that leases a chunk and vanishes (no heartbeat, no result) must not
// strand the job — the lease expires and the chunk is re-issued, and the
// final bytes are still identical to a single-node run.
func TestFleetDeadClaimantReissue(t *testing.T) {
	cfg := Config{
		Version: "fleet-reissue", Role: RoleCoordinator,
		FleetChunk: 500, LeaseTTL: 300 * time.Millisecond, Parallel: 1,
	}
	srv, client := newTestServer(t, cfg)
	req := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 40000, Seed: 13}
	want := directBytes(t, req)

	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	// Claim one chunk as a worker that immediately dies.
	body, _ := json.Marshal(ClaimRequest{Version: srv.Scheduler().Version(), Node: "doomed"})
	resp, err := http.Post(client.BaseURL()+"/chunks/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim = %d, want a lease while the batch is fresh", resp.StatusCode)
	}
	var lease ChunkLease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatal("re-issued chunk broke byte identity")
	}
	st := srv.Scheduler().Stats()
	if st.Fleet.Reissued == 0 {
		t.Fatal("abandoned lease was never re-issued")
	}
	// The dead claimant's lease is gone: a late result must bounce.
	body, _ = json.Marshal(ChunkResult{Lease: lease.Lease, Dist: nil, Error: ""})
	late, err := http.Post(client.BaseURL()+"/chunks/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	if late.StatusCode != http.StatusGone {
		t.Fatalf("late result from a dead claimant = %d, want 410 (double merge hazard)", late.StatusCode)
	}
}

// TestFleetWorkersEndToEnd runs a real 3-node fleet — coordinator plus two
// worker Servers with live claim loops — kills one worker mid-job, and
// requires byte identity with a bare single-node run plus evidence that
// remote claims actually happened.
func TestFleetWorkersEndToEnd(t *testing.T) {
	coord, client := newTestServer(t, Config{
		Version: "fleet-e2e", Role: RoleCoordinator,
		FleetChunk: 500, LeaseTTL: 500 * time.Millisecond, Parallel: 1, Workers: 1,
	})

	newFleetWorker := func() *Server {
		w, err := New(Config{
			Version: "fleet-e2e", Role: RoleWorker, Join: client.BaseURL(),
			Parallel: 2, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w1 := newFleetWorker()
	defer w1.Close()
	w2 := newFleetWorker()

	req := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 60000, Seed: 21}
	want := directBytes(t, req)
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}

	// Let the fleet get into the job, then kill one worker mid-run: its
	// in-flight leases must expire and re-issue, not wedge the job.
	time.Sleep(700 * time.Millisecond)
	w2.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatal("3-node fleet result differs from single-node bytes")
	}
	st := coord.Scheduler().Stats()
	if st.Fleet.RemoteClaims == 0 {
		t.Fatal("no chunks were ever claimed remotely — the fleet never fleeted")
	}
}

// TestFleetWorkerHeartbeatKeepsLongChunkAlive pins the lease-extension
// path: one chunk that takes several lease TTLs to compute must survive —
// the worker's heartbeats keep extending it, the chunk is never re-issued,
// and the result still matches single-node bytes.
func TestFleetWorkerHeartbeatKeepsLongChunkAlive(t *testing.T) {
	// Two chunks, each taking several TTLs to compute: the coordinator's
	// single local claimant takes one, the worker claims the other, and
	// only heartbeats keep the worker's lease alive across its long run.
	coord, client := newTestServer(t, Config{
		Version: "fleet-beat", Role: RoleCoordinator,
		FleetChunk: 50000, LeaseTTL: 200 * time.Millisecond, Parallel: 1, Workers: 1,
	})
	w, err := New(Config{
		Version: "fleet-beat", Role: RoleWorker, Join: client.BaseURL(),
		Parallel: 2, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	req := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 100000, Seed: 55}
	want := directBytes(t, req)
	final := waitResult(t, client, req)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, want) {
		t.Fatal("heartbeat-extended chunk broke byte identity")
	}
	st := coord.Scheduler().Stats()
	if st.Fleet.Reissued != 0 {
		t.Fatalf("%d chunks re-issued despite live heartbeats", st.Fleet.Reissued)
	}
	if st.Fleet.RemoteClaims == 0 {
		t.Fatal("the worker never claimed its chunk")
	}
	if claimed, _, _ := w.Worker().Counters(); claimed == 0 {
		t.Fatal("worker counters recorded no claims")
	}
}

// TestFleetChunkErrorFailsWholeJob pins the no-partial-batches rule: one
// chunk reporting an error fails the entire job with that message —
// partial distributions are never merged into a served result.
func TestFleetChunkErrorFailsWholeJob(t *testing.T) {
	srv, client := newTestServer(t, Config{
		Version: "fleet-cherr", Role: RoleCoordinator, FleetChunk: 300, Parallel: 1,
	})
	req := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 60000, Seed: 91}
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	// Claim one chunk as a remote worker and report a failure for it.
	body, _ := json.Marshal(ClaimRequest{Version: srv.Scheduler().Version(), Node: "saboteur"})
	resp, err := http.Post(client.BaseURL()+"/chunks/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim = %d", resp.StatusCode)
	}
	var lease ChunkLease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body, _ = json.Marshal(ChunkResult{Lease: lease.Lease, Error: "arena caught fire"})
	rr, err := http.Post(client.BaseURL()+"/chunks/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed {
		t.Fatalf("job ended %s, want failed", final.Status)
	}
	if !strings.Contains(final.Error, "arena caught fire") {
		t.Fatalf("job error %q does not carry the chunk's message", final.Error)
	}
}

// TestWorkerStatsSurface pins the worker node's observability: /statz on a
// worker reports its role and its claim-loop counters. The worker is
// certain to get work: it joins only once the coordinator's single local
// claimant is busy on a one-chunk job far longer than the test, so the
// next job's chunk has no other claimant.
func TestWorkerStatsSurface(t *testing.T) {
	coord, coordClient := newTestServer(t, Config{
		Version: "fleet-wstats", Role: RoleCoordinator, FleetChunk: DefaultMaxTrials, Parallel: 1,
	})
	ctx := context.Background()
	blocker, err := coordClient.Submit(ctx, []JobRequest{
		{Scenario: "ring/a-lead/fifo", N: 24, Trials: DefaultMaxTrials, Seed: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coordClient.Cancel(ctx, blocker[0].ID) })
	deadline := time.Now().Add(10 * time.Second)
	for coord.Scheduler().Stats().Workers.Busy == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the local claimant never picked up the blocking job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	w, err := New(Config{Version: "fleet-wstats", Role: RoleWorker, Join: coordClient.BaseURL(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	wClient := NewClient(ts.URL)

	// Give the worker something to claim so its counters move.
	req := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 1000, Seed: 61}
	final := waitResult(t, coordClient, req)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		st, err := wClient.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Fleet.Role != RoleWorker {
			t.Fatalf("worker /statz role %q", st.Fleet.Role)
		}
		if st.Fleet.Claimed > 0 && st.Fleet.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker counters never moved: %+v", st.Fleet)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerVersionMismatchBacksOff pins the mixed-build guard end to
// end: a worker built at a different code version must never receive a
// lease — its claims bounce with 409 and it counts errors instead of work.
func TestWorkerVersionMismatchBacksOff(t *testing.T) {
	_, coordClient := newTestServer(t, Config{
		Version: "build-A", Role: RoleCoordinator, FleetChunk: 100, Parallel: 1,
	})
	w, err := New(Config{Version: "build-B", Role: RoleWorker, Join: coordClient.BaseURL(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// Work exists, but the worker must not get any of it.
	final := waitResult(t, coordClient, JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 500, Seed: 41})
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		claimed, done, errs := w.Worker().Counters()
		if claimed != 0 || done != 0 {
			t.Fatalf("mismatched worker got work: claimed=%d done=%d", claimed, done)
		}
		if errs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mismatched worker never recorded a version error")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMemCacheEvictionDropsJobRecord pins the eviction plumbing through
// the scheduler: when the LRU cache evicts a result's bytes, the job
// record under the same content address is dropped with it, and a
// resubmission of the evicted identity recomputes instead of replaying.
func TestMemCacheEvictionDropsJobRecord(t *testing.T) {
	srv, client := newTestServer(t, Config{CacheSize: 1})

	first := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 60, Seed: 81}
	second := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 60, Seed: 82}
	for _, req := range []JobRequest{first, second} {
		final := waitResult(t, client, req)
		if final.Status != StatusDone {
			t.Fatalf("job ended %s: %s", final.Status, final.Error)
		}
	}
	st := srv.Scheduler().Stats()
	if st.Cache.Entries != 1 {
		t.Fatalf("cache holds %d entries, want 1 (capacity)", st.Cache.Entries)
	}
	// The first identity was evicted: resubmitting runs fresh, not replay.
	fresh := st.Jobs.Fresh
	final := waitResult(t, client, first)
	if final.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s: %s", final.Status, final.Error)
	}
	if got := srv.Scheduler().Stats().Jobs.Fresh; got != fresh+1 {
		t.Fatalf("fresh runs %d after resubmitting an evicted identity, want %d", got, fresh+1)
	}
}

// TestFleetCancelDistributedJob pins cancelation: a distributed job
// cancels promptly, its queued chunks die, and late chunk results bounce
// instead of resurrecting state.
func TestFleetCancelDistributedJob(t *testing.T) {
	_, client := newTestServer(t, Config{
		Version: "fleet-cancel", Role: RoleCoordinator, FleetChunk: 500, Parallel: 1,
	})
	req := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 200000, Seed: 3}
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(context.Background(), states[0].ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("job ended %s, want canceled", final.Status)
	}
}

// TestWorkerRejectsJobSurface pins the worker role's HTTP posture: the
// job endpoints point at the coordinator instead of accepting work the
// node cannot own.
func TestWorkerRejectsJobSurface(t *testing.T) {
	_, coordClient := newTestServer(t, Config{Version: "fleet-posture", Role: RoleCoordinator})
	w, err := New(Config{Version: "fleet-posture", Role: RoleWorker, Join: coordClient.BaseURL(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(`{"jobs":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("worker /jobs = %d, want 421", resp.StatusCode)
	}

	// A worker without a coordinator URL must not construct at all.
	if _, err := New(Config{Role: RoleWorker}); err == nil {
		t.Fatal("worker without Join constructed")
	}
	// Unknown roles must not construct either.
	if _, err := New(Config{Role: "manager"}); err == nil {
		t.Fatal("unknown role constructed")
	}
}
