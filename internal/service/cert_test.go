package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// quickCert certifies a small honest scenario in well under a second.
var quickCert = CertRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 300, Seed: 11}

// TestCertifyEndToEnd drives one certification sweep through the HTTP API:
// submit, watch the per-candidate NDJSON stream, and check the terminal
// certificate parses with a verdict.
func TestCertifyEndToEnd(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	states, err := client.SubmitCerts(ctx, []CertRequest{quickCert})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(states) != 1 {
		t.Fatalf("got %d states", len(states))
	}
	var progressLines int
	final, err := client.WatchCert(ctx, states[0].ID, func(st CertState) {
		if st.Progress != nil {
			progressLines++
			if st.Progress.Total < 1 || st.Progress.Index < 1 || st.Progress.Index > st.Progress.Total {
				t.Errorf("bad progress indices: %+v", st.Progress)
			}
		}
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("finished %s: %s", final.Status, final.Error)
	}
	var cert equilibrium.Certificate
	if err := json.Unmarshal(final.Result, &cert); err != nil {
		t.Fatalf("bad certificate bytes: %v", err)
	}
	if cert.Scenario != quickCert.Scenario || cert.Verdict == "" {
		t.Errorf("odd certificate: scenario %q verdict %q", cert.Scenario, cert.Verdict)
	}
	if cert.Key != final.ID {
		t.Errorf("certificate key %s differs from job id %s", cert.Key, final.ID)
	}

	// A plain GET /certify/{id} reads the same terminal state; an unknown
	// id is a 404.
	got, err := client.Cert(ctx, final.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got.Status != StatusDone || !bytes.Equal(got.Result, final.Result) {
		t.Errorf("GET state %s differs from the watched terminal state", got.Status)
	}
	if _, err := client.Cert(ctx, "deadbeef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id: got %v, want a 404", err)
	}
}

// TestCertifyCacheReplayByteIdentity resubmits an identical sweep and
// demands the cached certificate byte-for-byte, plus agreement with a
// direct in-process Certify under the daemon's version.
func TestCertifyCacheReplayByteIdentity(t *testing.T) {
	srv, client := newTestServer(t, Config{Version: "test-pin"})
	ctx := context.Background()

	first, err := client.SubmitCerts(ctx, []CertRequest{quickCert})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitCert(ctx, first[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("finished %s: %s", final.Status, final.Error)
	}

	replay, err := client.SubmitCerts(ctx, []CertRequest{quickCert})
	if err != nil {
		t.Fatal(err)
	}
	if replay[0].Status != StatusDone {
		t.Fatalf("replay not served from cache: %s", replay[0].Status)
	}
	if !bytes.Equal(replay[0].Result, final.Result) {
		t.Error("replayed certificate bytes differ from first computation")
	}

	// The service must add transport, never drift: a direct in-process
	// sweep under the same version produces the same bytes.
	sc := scenario.MustFind(quickCert.Scenario)
	direct, err := equilibrium.Certify(ctx, sc, quickCert.Seed, equilibrium.Options{
		N: quickCert.N, Trials: quickCert.Trials, Version: srv.Scheduler().Version(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Result, want) {
		t.Errorf("service certificate differs from direct Certify:\nservice: %s\n direct: %s", final.Result, want)
	}
}

// TestCertifyDedupSharesOneSweep checks identical in-flight certification
// requests fold into one computation, and that trial jobs and sweeps share
// the engine slots without sharing identities.
func TestCertifyDedupSharesOneSweep(t *testing.T) {
	// One chunk per job, so the blocker is one engine run.
	srv, client := newTestServer(t, Config{FleetChunk: DefaultMaxTrials})
	ctx := context.Background()

	// Occupy the single engine slot so the sweeps stay queued.
	blocker := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 6000, Seed: 1}
	if _, err := client.Submit(ctx, []JobRequest{blocker}); err != nil {
		t.Fatal(err)
	}
	pair, err := client.SubmitCerts(ctx, []CertRequest{quickCert, quickCert})
	if err != nil {
		t.Fatal(err)
	}
	if pair[0].ID != pair[1].ID {
		t.Errorf("identical requests got distinct ids %s and %s", pair[0].ID, pair[1].ID)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Certificates != 2 {
		t.Errorf("stats count %d certificate submissions, want 2", st.Jobs.Certificates)
	}
	// Exactly two fresh runs total: the blocker and one sweep.
	if st.Jobs.Fresh != 2 {
		t.Errorf("%d fresh runs, want 2 (blocker + deduped sweep)", st.Jobs.Fresh)
	}
	final, err := client.WaitCert(ctx, pair[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("sweep finished %s: %s", final.Status, final.Error)
	}
	_ = srv
}

// TestCertifyCancel cancels a queued sweep and checks the terminal state
// propagates to watchers and to resubmission semantics.
func TestCertifyCancel(t *testing.T) {
	// One chunk per job: a trial job frees its slot between chunks.
	srv, client := newTestServer(t, Config{FleetChunk: DefaultMaxTrials})
	ctx := context.Background()

	// The blocker must hold the single engine slot until the cancel request
	// lands; the batched trial kernel runs a-lead trials in microseconds, so
	// the trial count is sized for hundreds of milliseconds of occupancy.
	// It holds the slot once it runs: a sweep submitted sooner can win the
	// slot from the claimant about to run the blocker's chunk.
	blocker := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 120000, Seed: 2}
	blockers, err := client.Submit(ctx, []JobRequest{blocker})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, blockers[0].ID, StatusRunning)
	states, err := client.SubmitCerts(ctx, []CertRequest{{Scenario: "ring/a-lead/fifo", N: 16, Trials: 5000, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CancelCert(ctx, states[0].ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := client.WaitCert(ctx, states[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Errorf("status %s, want canceled", final.Status)
	}
	// Canceling again conflicts; a bogus id is a 404.
	if err := client.CancelCert(ctx, states[0].ID); err == nil {
		t.Error("second cancel should conflict")
	}
	if err := client.CancelCert(ctx, "deadbeef"); err == nil {
		t.Error("unknown id should 404")
	}
}

// TestCertifyRejectsBadBatchWhole mirrors the job-batch validation: one bad
// request rejects the whole batch before anything runs.
func TestCertifyRejectsBadBatchWhole(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	bad := []CertRequest{
		quickCert,
		{Scenario: "ring/no-such/protocol", Seed: 1},
	}
	if _, err := client.SubmitCerts(ctx, bad); err == nil {
		t.Fatal("unknown scenario should reject the batch")
	}
	bad[1] = CertRequest{Scenario: "ring/a-lead/attack=rushing-equal", N: 4, Seed: 1}
	if _, err := client.SubmitCerts(ctx, bad); err == nil {
		t.Fatal("n below the scenario floor should reject the batch")
	}
	bad[1] = CertRequest{Scenario: "ring/basic-lead/fifo", Epsilon: 1.5, Seed: 1}
	if _, err := client.SubmitCerts(ctx, bad); err == nil {
		t.Fatal("epsilon out of range should reject the batch")
	}
	// The MaxTrials bound applies to the whole sweep: ring/sum-phase/fifo
	// enumerates several candidates, so a per-candidate budget under the
	// bound can still push the sweep total over it.
	bad[1] = CertRequest{Scenario: "ring/sum-phase/fifo", Trials: 200_000, Seed: 1}
	if _, err := client.SubmitCerts(ctx, bad); err == nil {
		t.Fatal("sweep total over MaxTrials should reject the batch")
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Fresh != 0 {
		t.Errorf("%d fresh runs after rejected batches, want 0", st.Jobs.Fresh)
	}
}
