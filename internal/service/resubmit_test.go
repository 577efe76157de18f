package service

import (
	"context"
	"testing"
	"time"
)

// TestResubmitAfterFailureKeepsNewJobAlive pins the retire-path identity
// guard: when a canceled job's identity is resubmitted, a NEW *Job object
// takes over the same content-addressed ID. Retiring the old record under
// cache churn must evict only the old object — the `cur == old` check in
// retire — never the live successor that happens to share its ID.
func TestResubmitAfterFailureKeepsNewJobAlive(t *testing.T) {
	// A one-record budget keeps the retired-job window at one entry, so every
	// retirement after the first forces an eviction decision.
	srv, client := newTestServer(t, Config{CacheBytes: entryOverhead})
	sched := srv.Scheduler()
	ctx := context.Background()

	// Hold the single engine slot so jobs under test sit queued and cancel
	// deterministically.
	blocker := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 500000, Seed: 70}
	blockerStates, err := client.Submit(ctx, []JobRequest{blocker})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	waitStatus(t, srv, blockerStates[0].ID, StatusRunning)

	// First incarnation: submit, cancel, observe terminal state.
	target := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 200, Seed: 71}
	firstStates, err := client.Submit(ctx, []JobRequest{target})
	if err != nil {
		t.Fatalf("submit first: %v", err)
	}
	id := firstStates[0].ID
	oldJob, ok := sched.Job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	if !sched.Cancel(id) {
		t.Fatalf("cancel %s", id)
	}
	<-oldJob.Done()
	// A watcher attached to the OLD incarnation sees its terminal state.
	if st := oldJob.State(); st.Status != StatusCanceled {
		t.Fatalf("old incarnation ended %s, want canceled", st.Status)
	}

	// Second incarnation: the same identity resubmits as a fresh run — a
	// distinct *Job under the same ID.
	secondStates, err := client.Submit(ctx, []JobRequest{target})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if secondStates[0].ID != id {
		t.Fatalf("resubmission changed identity: %s vs %s", secondStates[0].ID, id)
	}
	newJob, ok := sched.Job(id)
	if !ok {
		t.Fatal("resubmitted job not registered")
	}
	if newJob == oldJob {
		t.Fatal("resubmission reused the canceled *Job instead of replacing it")
	}

	// Churn the retirement window: cancel unrelated jobs until the OLD
	// incarnation's record must have been pushed out of the window. Its
	// eviction runs while s.jobs[id] points at the NEW object — the guard
	// under test.
	for seed := int64(100); seed < 103; seed++ {
		churn := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 50, Seed: seed}
		states, err := client.Submit(ctx, []JobRequest{churn})
		if err != nil {
			t.Fatalf("submit churn %d: %v", seed, err)
		}
		if !sched.Cancel(states[0].ID) {
			t.Fatalf("cancel churn %d", seed)
		}
		j, _ := sched.Job(states[0].ID)
		<-j.Done()
	}

	// The new incarnation must still be addressable: retire evicted the old
	// record without deleting the live successor from the job table.
	// (Retirement runs just after each done channel closes; give the last
	// churn retirement a beat to land before the decisive check.)
	time.Sleep(100 * time.Millisecond)
	if cur, ok := sched.Job(id); !ok {
		t.Fatal("live resubmitted job was deleted by the old record's retirement")
	} else if cur != newJob {
		t.Fatal("job table no longer points at the resubmitted incarnation")
	}

	// Watchers of each incarnation see distinct terminal states: old is
	// canceled (checked above and stable), new completes once the blocker
	// frees the slot.
	if !sched.Cancel(blockerStates[0].ID) {
		t.Fatal("cancel blocker")
	}
	final, err := client.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait for resubmitted job: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s: %s", final.Status, final.Error)
	}
	if st := oldJob.State(); st.Status != StatusCanceled {
		t.Fatalf("old incarnation's state mutated to %s after the new one finished", st.Status)
	}
}
