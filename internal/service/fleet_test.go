package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ring"
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

// waitUntil polls cond until it holds, failing the test with what after
// 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitClaimsWaiting waits until at least n claims are parked on the
// coordinator's queue, its local claimants included.
func waitClaimsWaiting(t *testing.T, srv *Server, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("fewer than %d claims ever waited for work", n), func() bool {
		return srv.Scheduler().Stats().Fleet.ClaimsWaiting >= n
	})
}

// holdLocalClaimant submits blocker, a job of one long chunk, and waits
// until the coordinator's single local claimant runs it, so the chunks of
// the next job have no local taker until the blocker is canceled. It
// returns the blocker's id. The claimant takes its slot before the chunk,
// so a busy slot alone does not show that the chunk left the queue; the
// job turns running only once it has.
func holdLocalClaimant(t *testing.T, srv *Server, client *Client, blocker JobRequest) string {
	t.Helper()
	states, err := client.Submit(context.Background(), []JobRequest{blocker})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := srv.Scheduler().Job(states[0].ID)
	if !ok {
		t.Fatal("blocking job not registered")
	}
	waitUntil(t, "the local claimant never picked up the blocking job", func() bool {
		return j.State().Status == StatusRunning
	})
	return states[0].ID
}

// claimAnswer is the outcome of one raw chunk claim.
type claimAnswer struct {
	resp *http.Response
	err  error
}

// claimAsync sends one raw chunk claim to a coordinator on its own
// goroutine and delivers the answer.
func claimAsync(base string, claim ClaimRequest) <-chan claimAnswer {
	answered := make(chan claimAnswer, 1)
	go func() {
		body, _ := json.Marshal(claim)
		resp, err := http.Post(base+"/chunks/claim", "application/json", bytes.NewReader(body))
		answered <- claimAnswer{resp, err}
	}()
	return answered
}

// postClaim sends one raw chunk claim to a coordinator and returns the
// answer.
func postClaim(t *testing.T, base string, claim ClaimRequest) *http.Response {
	t.Helper()
	a := <-claimAsync(base, claim)
	if a.err != nil {
		t.Fatal(a.err)
	}
	return a.resp
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

	// The doomed claimant is certain to get a chunk: the coordinator's
	// single local claimant is first held busy on a long one-chunk job,
	// which is canceled only once the claim has landed. Without it the
	// local claimant can drain the whole batch before the claim arrives.
	blocker := holdLocalClaimant(t, srv, client, JobRequest{Scenario: "ring/a-lead/fifo", N: 1024, Trials: 500, Seed: 14})
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	// Claim one chunk as a worker that immediately dies.
	resp := postClaim(t, client.BaseURL(), ClaimRequest{Version: srv.Scheduler().Version(), Node: "doomed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim = %d, want a lease while the batch is fresh", resp.StatusCode)
	}
	var lease ChunkLease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := client.Cancel(context.Background(), blocker); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}

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
	body, _ := json.Marshal(ChunkResult{Lease: lease.Lease, Dist: nil, Error: ""})
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
	// Beyond the local claimant, a worker's claim is parked on the queue,
	// so the job's first chunks wake it along with the local claimant.
	waitClaimsWaiting(t, coord, 2)
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
	waitClaimsWaiting(t, coord, 2)
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
	// The saboteur's claim must win a chunk: the local claimant is held
	// busy on a one-chunk job until the claim has landed.
	blocker := holdLocalClaimant(t, srv, client, JobRequest{Scenario: "ring/a-lead/fifo", N: 1024, Trials: 300, Seed: 92})
	req := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 60000, Seed: 91}
	states, err := client.Submit(context.Background(), []JobRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	// Claim one chunk as a remote worker and report a failure for it.
	resp := postClaim(t, client.BaseURL(), ClaimRequest{Version: srv.Scheduler().Version(), Node: "saboteur"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim = %d", resp.StatusCode)
	}
	var lease ChunkLease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := client.Cancel(context.Background(), blocker); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	body, _ := json.Marshal(ChunkResult{Lease: lease.Lease, Error: "arena caught fire"})
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

// TestFleetRejectsMalformedShards leases one 320-trial chunk of an n = 8,
// 640-trial job and reports a malformed result for it, one body per case.
// Each must fail the job with an error naming a chunk, never hang it, fold
// wrong bytes into it or wedge the coordinator: /statz must still answer
// afterwards. A shard that fails Validate gets a 400 and names its chunk; a
// valid shard whose message count overflows the job's merged count is
// accepted, and the merge of the next chunk fails the job. Every wait is
// bounded, so a coordinator that wedges fails the test instead of hanging
// it.
func TestFleetRejectsMalformedShards(t *testing.T) {
	n9 := ring.NewDistribution(9)
	n9.Trials, n9.Counts[9] = 320, 320
	// A well-formed shard whose message count passes Validate but
	// overflows the job's merged count once chunk 1 folds on top of it.
	huge := ring.NewDistribution(8)
	huge.Trials, huge.Counts[8], huge.Messages = 320, 320, math.MaxInt
	const chunk0 = "chunk 0, trials [0, 320)"
	for _, tc := range []struct {
		name   string
		res    ChunkResult
		status int    // the coordinator's answer to the result
		chunk  string // the chunk the job's error names
	}{
		{"neither shard nor error", ChunkResult{}, http.StatusBadRequest, chunk0},
		{"empty shard", ChunkResult{Dist: ring.NewDistribution(8)}, http.StatusBadRequest, chunk0},
		{"shard for n=9", ChunkResult{Dist: n9}, http.StatusBadRequest, chunk0},
		{"short counts", ChunkResult{Dist: &ring.Distribution{N: 8, Trials: 320, Counts: []int{0, 320}}}, http.StatusBadRequest, chunk0},
		{"message count overflows", ChunkResult{Dist: huge}, http.StatusOK, "chunk 1, trials [320, 640)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Version: "fleet-bad-shard", Role: RoleCoordinator, FleetChunk: 320, Parallel: 1, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				closed := make(chan struct{})
				go func() {
					srv.Close()
					ts.Close()
					close(closed)
				}()
				select {
				case <-closed:
				case <-time.After(30 * time.Second):
					t.Error("coordinator did not shut down")
				}
			})
			client := NewClient(ts.URL)
			httpc := &http.Client{Timeout: 15 * time.Second} // above claimWait
			post := func(path string, body any) (*http.Response, error) {
				b, _ := json.Marshal(body)
				return httpc.Post(ts.URL+path, "application/json", bytes.NewReader(b))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			// Hold the local claimant so the claim below wins chunk 0. The
			// blocker is ten engine chunks, so a cancel lands after the
			// chunks in flight rather than after the whole job.
			blocker := holdLocalClaimant(t, srv, client, JobRequest{Scenario: "ring/a-lead/fifo", N: 1024, Trials: 320, Seed: 93})
			req := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 640, Seed: 94}
			states, err := client.Submit(ctx, []JobRequest{req})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := post("/chunks/claim", ClaimRequest{Version: srv.Scheduler().Version(), Node: "saboteur", Wait: true})
			if err != nil {
				t.Fatal(err)
			}
			var lease ChunkLease
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&lease) != nil || lease.Job.Seed != req.Seed {
				t.Fatalf("claim = %d, lease %+v; want chunk 0 of the job", resp.StatusCode, lease)
			}
			resp.Body.Close()

			tc.res.Lease = lease.Lease
			if rr, err := post("/chunks/result", tc.res); err != nil {
				t.Errorf("result: %v", err)
			} else {
				rr.Body.Close()
				if rr.StatusCode != tc.status {
					t.Errorf("result = %d, want %d", rr.StatusCode, tc.status)
				}
			}
			if err := client.Cancel(ctx, blocker); err != nil {
				t.Errorf("cancel blocker: %v", err)
			}
			final, err := client.Wait(ctx, states[0].ID)
			if err != nil {
				t.Errorf("job never ended: %v", err)
			} else if final.Status != StatusFailed || !strings.Contains(final.Error, tc.chunk) {
				t.Errorf("job ended %s (%q), want failed naming %s", final.Status, final.Error, tc.chunk)
			}
			if _, err := client.Stats(ctx); err != nil {
				t.Errorf("/statz after the bad result: %v", err)
			}
		})
	}
}

// TestFleetWaitingClaimGetsNextJob pins the parked claim: with the local
// claimant busy, a claim that asks to wait and arrives before any job
// exists is answered with a lease of the job submitted after it, while the
// same claim without wait is answered 204 at once.
func TestFleetWaitingClaimGetsNextJob(t *testing.T) {
	srv, client := newTestServer(t, Config{
		Version: "fleet-wait", Role: RoleCoordinator, FleetChunk: 500, Parallel: 1,
	})
	blocker := holdLocalClaimant(t, srv, client, JobRequest{Scenario: "ring/a-lead/fifo", N: 1024, Trials: 500, Seed: 71})
	claim := ClaimRequest{Version: srv.Scheduler().Version(), Node: "idle"}
	resp := postClaim(t, client.BaseURL(), claim)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("claim without wait on an empty queue = %d, want 204", resp.StatusCode)
	}

	claim.Wait = true
	answered := claimAsync(client.BaseURL(), claim)
	waitClaimsWaiting(t, srv, 1) // the local claimant is busy: this is the HTTP claim
	req := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 1000, Seed: 72}
	if _, err := client.Submit(context.Background(), []JobRequest{req}); err != nil {
		t.Fatal(err)
	}
	var a claimAnswer
	select {
	case a = <-answered:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting claim was not answered when the job was queued")
	}
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.resp.Body.Close()
	if a.resp.StatusCode != http.StatusOK {
		t.Fatalf("waiting claim = %d, want a lease of the job queued after it", a.resp.StatusCode)
	}
	var lease ChunkLease
	if err := json.NewDecoder(a.resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if lease.Job != req || lease.Start != 0 {
		t.Fatalf("waiting claim leased %+v [%d, %d), want the first chunk of %+v", lease.Job, lease.Start, lease.End, req)
	}
	if err := client.Cancel(context.Background(), blocker); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
}

// TestFleetCloseEndsWaitingClaims pins shutdown with parked claims:
// closing a coordinator answers its waiting claims with 204, and closing a
// worker cancels the claim it has parked, both well inside claimWait.
func TestFleetCloseEndsWaitingClaims(t *testing.T) {
	srv, client := newTestServer(t, Config{Version: "fleet-close", Role: RoleCoordinator})
	answered := claimAsync(client.BaseURL(), ClaimRequest{Version: srv.Scheduler().Version(), Wait: true})
	waitClaimsWaiting(t, srv, 2) // the idle local claimant and the HTTP claim
	srv.Close()
	select {
	case a := <-answered:
		if a.err != nil {
			t.Fatal(a.err)
		}
		a.resp.Body.Close()
		if a.resp.StatusCode != http.StatusNoContent {
			t.Fatalf("waiting claim at coordinator close = %d, want 204", a.resp.StatusCode)
		}
	case <-time.After(time.Second):
		t.Fatal("a waiting claim was still unanswered 1 s after its coordinator closed")
	}

	coord, coordClient := newTestServer(t, Config{Version: "fleet-close", Role: RoleCoordinator})
	w, err := New(Config{Version: "fleet-close", Role: RoleWorker, Join: coordClient.BaseURL(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitClaimsWaiting(t, coord, 2) // the idle local claimant and the worker's claim
	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("worker Close was still blocked on its waiting claim after 1 s")
	}
}

// TestFleetClaimContext pins the parking path's context handling below
// HTTP: a wait whose context has ended takes a look at the queue and
// returns, a parked wait returns when its context ends, a wait that finds
// a chunk leaves it queued, and a claimant that has hung up takes no chunk.
func TestFleetClaimContext(t *testing.T) {
	f := &fleet{
		s:   &Scheduler{baseCtx: context.Background()},
		ttl: time.Minute, leased: make(map[int64]*fleetChunk), wake: make(chan struct{}),
	}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if f.wait(ended) {
		t.Fatal("wait on an empty queue reported a chunk")
	}
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if f.wait(short) {
		t.Fatal("parked wait reported a chunk")
	}
	if f.waiting != 0 {
		t.Fatalf("%d claims still counted as waiting after their context ended", f.waiting)
	}

	task := &fleetTask{job: &Job{Req: JobRequest{Scenario: "ring/basic-lead/fifo", Seed: 1}}}
	first := &fleetChunk{task: task, index: 0, start: 0, end: 10}
	second := &fleetChunk{task: task, index: 1, start: 10, end: 20}
	f.queue = []*fleetChunk{first, second}
	if !f.wait(ended) {
		t.Fatal("wait on a queued chunk reported none")
	}
	if len(f.queue) != 2 || f.queue[0] != first {
		t.Fatal("wait took a chunk off the queue")
	}
	if lease := f.claimRemote(ended, claimWait); lease != nil {
		t.Fatalf("a claimant that hung up was leased %+v", lease)
	}
	if len(f.leased) != 0 || first.lease != 0 {
		t.Fatalf("a claimant that hung up left %d leases behind", len(f.leased))
	}
	if len(f.queue) != 2 || f.queue[0] != first {
		t.Fatal("a claimant that hung up took a chunk off the queue")
	}
	lease := f.claimRemote(context.Background(), 0)
	if lease == nil || lease.Start != 0 || lease.End != 10 || len(f.leased) != 1 {
		t.Fatalf("claim without wait = %+v with %d leases, want the first chunk leased", lease, len(f.leased))
	}
}

// TestLocalClaimantTakesSlotBeforeChunk pins that a chunk never waits
// behind a busy node while another node idles: on a coordinator whose one
// engine slot runs a certification sweep, a trial job queued there runs
// on a worker that joins while the sweep is still running.
func TestLocalClaimantTakesSlotBeforeChunk(t *testing.T) {
	coord, client := newTestServer(t, Config{Version: "fleet-slot", Role: RoleCoordinator, Parallel: 1})
	sched := coord.Scheduler()
	ctx := context.Background()
	sweep := CertRequest{Scenario: "ring/a-lead/fifo", N: 256, Trials: 20000, MinTrials: 20000, Seed: 5}
	certs, err := client.SubmitCerts(ctx, []CertRequest{sweep})
	if err != nil {
		t.Fatalf("submit sweep: %v", err)
	}
	cert, _ := sched.Cert(certs[0].ID)
	t.Cleanup(func() { sched.CancelCert(cert.ID) })
	waitUntil(t, "the sweep never started", func() bool { return cert.State().Status == StatusRunning })
	jobs, err := client.Submit(ctx, []JobRequest{quickJob})
	if err != nil {
		t.Fatalf("submit job: %v", err)
	}
	job, _ := sched.Job(jobs[0].ID)

	w, err := New(Config{Version: "fleet-slot", Role: RoleWorker, Join: client.BaseURL(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	select {
	case <-job.Done():
	case <-cert.Done():
		t.Fatal("the sweep ended before the trial job queued beside it finished")
	case <-time.After(10 * time.Second):
		t.Fatal("the trial job waited behind the sweep with an idle worker beside it")
	}
	if st := job.State(); st.Status != StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	if status := cert.State().Status; status != StatusRunning {
		t.Fatalf("the sweep is %s; the job must finish while it runs", status)
	}
	if remote := sched.Stats().Fleet.RemoteClaims; remote != 1 {
		t.Fatalf("%d remote claims, want the job's one chunk claimed by the worker", remote)
	}
}

// TestIdleWorkerParksNoLocalClaims pins that a worker starts no local
// claimants: it enqueues nothing, so its /statz reads no claim waiting
// on its own queue while its claim loops are parked on the coordinator.
func TestIdleWorkerParksNoLocalClaims(t *testing.T) {
	coord, coordClient := newTestServer(t, Config{Version: "fleet-idle", Role: RoleCoordinator})
	_, workerClient := newTestServer(t, Config{
		Version: "fleet-idle", Role: RoleWorker, Join: coordClient.BaseURL(), Parallel: 3,
	})
	waitClaimsWaiting(t, coord, 4) // the coordinator's local claimant and the worker's 3 loops
	st, err := workerClient.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.ClaimsWaiting != 0 {
		t.Fatalf("an idle worker reports %d claims waiting on its own queue, want 0", st.Fleet.ClaimsWaiting)
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
	blocker := holdLocalClaimant(t, coord, coordClient,
		JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: DefaultMaxTrials, Seed: 60})
	t.Cleanup(func() { _ = coordClient.Cancel(ctx, blocker) })

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
	deadline := time.Now().Add(10 * time.Second)
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
	srv, client := newTestServer(t, Config{CacheBytes: entryOverhead})

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
