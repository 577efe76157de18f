package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
)

// newTestServer boots a daemon on an httptest listener with a single
// engine-run slot, so queueing and dedup behaviour is deterministic.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Parallel == 0 {
		cfg.Parallel = 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		// Scheduler first: closing it answers every parked chunk claim,
		// and ts.Close blocks until outstanding requests finish.
		srv.Close()
		ts.Close()
	})
	return srv, NewClient(ts.URL)
}

// slowJob is big enough to stay in flight while the test races a duplicate
// submission against it (sized for the batched trial kernel, which runs
// tens of thousands of n=24 trials per second per worker).
var slowJob = JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 40000, Seed: 99}

// quickJob finishes in well under a second.
var quickJob = JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 120, Seed: 5}

func TestDedupIdenticalConcurrentJobs(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()

	// Occupy the single engine slot so the jobs under test stay queued
	// for as long as this test needs.
	blocker := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 200000, Seed: 1}
	first, err := client.Submit(ctx, []JobRequest{blocker})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}

	// Two identical jobs in one batch, then the same job again in a
	// second batch: all three must resolve to one content address and
	// one engine run.
	batch, err := client.Submit(ctx, []JobRequest{slowJob, slowJob})
	if err != nil {
		t.Fatalf("submit pair: %v", err)
	}
	again, err := client.Submit(ctx, []JobRequest{slowJob})
	if err != nil {
		t.Fatalf("submit again: %v", err)
	}
	if batch[0].ID != batch[1].ID || batch[0].ID != again[0].ID {
		t.Fatalf("identical jobs got distinct ids: %s %s %s", batch[0].ID, batch[1].ID, again[0].ID)
	}
	if batch[0].ID == first[0].ID {
		t.Fatal("distinct jobs share an id")
	}

	st := srv.Scheduler().Stats()
	if st.Jobs.Fresh != 2 {
		t.Fatalf("fresh engine runs = %d, want 2 (blocker + one shared run)", st.Jobs.Fresh)
	}
	if st.Cache.DedupHits != 2 {
		t.Fatalf("dedup hits = %d, want 2", st.Cache.DedupHits)
	}

	final, err := client.Wait(ctx, batch[0].ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	if final.Deduped != 2 {
		t.Fatalf("final state records %d dedup joins, want 2", final.Deduped)
	}
}

func TestCacheReplayByteIdentity(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	states, err := client.Submit(ctx, []JobRequest{quickJob})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	first, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if first.Status != StatusDone || len(first.Result) == 0 {
		t.Fatalf("first run finished %s with %d result bytes", first.Status, len(first.Result))
	}

	// Resubmit after completion: must be a cache replay with the exact
	// first-run bytes.
	replayStates, err := client.Submit(ctx, []JobRequest{quickJob})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	replay := replayStates[0]
	if replay.Status != StatusDone {
		t.Fatalf("replay status %s, want immediate done", replay.Status)
	}
	if !bytes.Equal(replay.Result, first.Result) {
		t.Fatalf("replay bytes differ:\n first: %s\nreplay: %s", first.Result, replay.Result)
	}

	// The cached bytes are an exact marshal of a direct registry run.
	sc, _ := scenario.Find(quickJob.Scenario)
	direct, err := sc.RunOpts(ctx, quickJob.Seed, scenario.Opts{N: quickJob.N, Trials: quickJob.Trials})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Result, want) {
		t.Fatalf("service bytes differ from direct run:\nservice: %s\n direct: %s", first.Result, want)
	}
}

func TestCancelMidFlightBatch(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()

	// One running job holding the single slot, then one queued behind it
	// (submitted second, so it cannot win the slot).
	running := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 200000, Seed: 3}
	queued := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 200000, Seed: 4}
	states, err := client.Submit(ctx, []JobRequest{running})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, srv, states[0].ID, StatusRunning)
	queuedStates, err := client.Submit(ctx, []JobRequest{queued})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	states = append(states, queuedStates...)
	for _, st := range states {
		if err := client.Cancel(ctx, st.ID); err != nil {
			t.Fatalf("cancel %s: %v", st.ID, err)
		}
	}
	for _, st := range states {
		final, err := client.Wait(ctx, st.ID)
		if err != nil {
			t.Fatalf("wait %s: %v", st.ID, err)
		}
		if final.Status != StatusCanceled {
			t.Fatalf("job %s finished %s, want canceled", st.ID, final.Status)
		}
	}
	// Canceling a terminal job is a conflict, not a success.
	if err := client.Cancel(ctx, states[0].ID); err == nil {
		t.Fatal("second cancel succeeded, want conflict")
	}

	// The daemon still works after cancellations, and a resubmission of
	// a canceled identity reruns rather than replaying nothing.
	redo, err := client.Submit(ctx, []JobRequest{quickJob})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	final, err := client.Wait(ctx, redo[0].ID)
	if err != nil {
		t.Fatalf("wait after cancel: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("post-cancel job finished %s: %s", final.Status, final.Error)
	}
	st := srv.Scheduler().Stats()
	if st.Jobs.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", st.Jobs.Canceled)
	}
}

func TestWatchStreamsProgress(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	job := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 20000, Seed: 11}
	states, err := client.Submit(ctx, []JobRequest{job})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var lines []JobState
	final, err := client.Watch(ctx, states[0].ID, func(st JobState) { lines = append(lines, st) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("watched job finished %s: %s", final.Status, final.Error)
	}
	if len(lines) < 2 {
		t.Fatalf("stream carried %d lines, want at least a progress line and the terminal line", len(lines))
	}
	lastDone := -1
	for _, st := range lines {
		if st.Progress == nil {
			continue
		}
		if st.Progress.Done < lastDone {
			t.Fatalf("progress went backwards: %d after %d", st.Progress.Done, lastDone)
		}
		lastDone = st.Progress.Done
		if st.Progress.Total != job.Trials {
			t.Fatalf("progress total %d, want %d", st.Progress.Total, job.Trials)
		}
		if st.Progress.MaxWin.Lo > st.Progress.MaxWin.Rate || st.Progress.MaxWin.Hi < st.Progress.MaxWin.Rate {
			t.Fatalf("Wilson interval [%f, %f] does not bracket rate %f",
				st.Progress.MaxWin.Lo, st.Progress.MaxWin.Hi, st.Progress.MaxWin.Rate)
		}
	}
	if lastDone != job.Trials {
		t.Fatalf("final progress covers %d trials, want %d", lastDone, job.Trials)
	}
}

// TestOneChunkJobStreamsEngineProgress pins snapshot granularity on the
// chunk path: a job of one chunk on a single node publishes the engine's
// prefix snapshots while it runs, not just its final total.
func TestOneChunkJobStreamsEngineProgress(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	job := JobRequest{Scenario: "ring/a-lead/fifo", N: 1024, Trials: DefaultFleetChunk, Seed: 12}
	states, err := client.Submit(context.Background(), []JobRequest{job})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j, ok := srv.Scheduler().Job(states[0].ID)
	if !ok {
		t.Fatal("submitted job not registered")
	}
	mid := map[int]bool{} // progress points seen before the batch was done
	for running := true; running; time.Sleep(time.Millisecond) {
		select {
		case <-j.Done():
			running = false
		default:
		}
		if p := j.State().Progress; p != nil && p.Done > 0 && p.Done < p.Total {
			mid[p.Done] = true
		}
	}
	if final := j.State(); final.Status != StatusDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	if st := srv.Scheduler().Stats(); st.Fleet.ChunksCompleted != 1 {
		t.Fatalf("the job ran as %d chunks, want 1", st.Fleet.ChunksCompleted)
	}
	if len(mid) == 0 {
		t.Fatal("a one-chunk job published no progress point between 0 and its total")
	}
}

// TestEngineRunsBoundedByParallel pins the Parallel bound on both roles
// that own jobs: with one slot, a trial job submitted while a
// certification sweep runs stays queued, and /statz never reports more
// than one busy engine run.
func TestEngineRunsBoundedByParallel(t *testing.T) {
	// The sweep takes seconds: every candidate runs its full budget at
	// n = 256. It is canceled once the window closes.
	sweep := CertRequest{Scenario: "ring/a-lead/fifo", N: 256, Trials: 20000, MinTrials: 20000, Seed: 5}
	const window = 300 * time.Millisecond
	for _, role := range []string{RoleSingle, RoleCoordinator} {
		t.Run(role, func(t *testing.T) {
			srv, client := newTestServer(t, Config{Role: role, Parallel: 1})
			sched := srv.Scheduler()
			ctx := context.Background()
			certs, err := client.SubmitCerts(ctx, []CertRequest{sweep})
			if err != nil {
				t.Fatalf("submit sweep: %v", err)
			}
			cert, _ := sched.Cert(certs[0].ID)
			waitUntil(t, "the sweep never started", func() bool { return cert.State().Status == StatusRunning })
			jobs, err := client.Submit(ctx, []JobRequest{quickJob})
			if err != nil {
				t.Fatalf("submit job: %v", err)
			}
			job, _ := sched.Job(jobs[0].ID)
			for end := time.Now().Add(window); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
				st, err := client.Stats(ctx)
				if err != nil {
					t.Fatalf("statz: %v", err)
				}
				if st.Workers.Busy > 1 {
					t.Fatalf("/statz reports %d busy engine runs with Parallel 1", st.Workers.Busy)
				}
				if status := job.State().Status; status != StatusQueued {
					t.Fatalf("the trial job is %s while the sweep holds the only slot", status)
				}
				if status := cert.State().Status; status != StatusRunning {
					t.Fatalf("the sweep is %s before the window closed; it must outlast it", status)
				}
			}
			if !sched.CancelCert(cert.ID) || !sched.Cancel(job.ID) {
				t.Fatal("a cancel of the sweep or the job was not delivered")
			}
			<-cert.Done()
			<-job.Done()
			if c, j := cert.State().Status, job.State().Status; c != StatusCanceled || j != StatusCanceled {
				t.Fatalf("sweep ended %s and job %s, want both canceled", c, j)
			}
		})
	}
}

// TestWatchDecodesLongLines follows a job whose terminal state is one NDJSON
// line of more than 64 KiB — the outcome of a committee election at
// n = 40,000 — so the watch scanner must grow its buffer well past bufio's
// default to decode it.
func TestWatchDecodesLongLines(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	job := JobRequest{Scenario: "committee/a-lead/fifo", N: 40000, Trials: 2, Seed: 3}
	states, err := client.Submit(ctx, []JobRequest{job})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := client.Wait(ctx, states[0].ID)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.Status != StatusDone {
		t.Fatalf("watched job finished %s: %s", final.Status, final.Error)
	}
	line, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) <= 64<<10 {
		t.Fatalf("terminal state is %d bytes, want a line longer than 64 KiB", len(line))
	}
	polled, err := client.Job(ctx, states[0].ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(final.Result, polled.Result) {
		t.Fatalf("watched result (%d bytes) differs from the polled one (%d bytes)",
			len(final.Result), len(polled.Result))
	}
}

func TestScenariosEndpointMatchesRegistry(t *testing.T) {
	_, client := newTestServer(t, Config{})
	descs, err := client.Scenarios(context.Background())
	if err != nil {
		t.Fatalf("scenarios: %v", err)
	}
	all := scenario.All()
	if len(descs) != len(all) {
		t.Fatalf("endpoint lists %d scenarios, registry has %d", len(descs), len(all))
	}
	for i, d := range descs {
		if d != all[i].Describe() {
			t.Fatalf("descriptor %d differs: %+v vs %+v", i, d, all[i].Describe())
		}
	}
}

func TestSubmitRejectsUnknownScenarioWhole(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	_, err := client.Submit(context.Background(), []JobRequest{quickJob, {Scenario: "no/such/thing", Seed: 1}})
	if err == nil {
		t.Fatal("batch with unknown scenario accepted")
	}
	if st := srv.Scheduler().Stats(); st.Jobs.Submitted != 0 {
		t.Fatalf("rejected batch still recorded %d submissions", st.Jobs.Submitted)
	}
}

func TestStatsHitRate(t *testing.T) {
	srv, client := newTestServer(t, Config{})
	ctx := context.Background()

	// 1 fresh + 4 duplicates in one batch, then 5 replays after it
	// lands: 9 hits / 10 submissions.
	batch := make([]JobRequest, 5)
	for i := range batch {
		batch[i] = quickJob
	}
	states, err := client.Submit(ctx, batch)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := client.Wait(ctx, states[0].ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if _, err := client.Submit(ctx, batch); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Jobs.Submitted != 10 || st.Jobs.Fresh != 1 {
		t.Fatalf("submitted=%d fresh=%d, want 10/1", st.Jobs.Submitted, st.Jobs.Fresh)
	}
	if st.Cache.Hits != 9 || st.Cache.HitRate != 0.9 {
		t.Fatalf("hits=%d rate=%f, want 9 at 0.9", st.Cache.Hits, st.Cache.HitRate)
	}
	if st.Workers.ArenasAllocated == 0 {
		t.Fatal("no arenas recorded as allocated after an engine run")
	}
	_ = srv
}

func TestSchedulerClosedRejectsSubmissions(t *testing.T) {
	srv, err := New(Config{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Scheduler().Submit([]JobRequest{quickJob}); err == nil {
		t.Fatal("closed scheduler accepted a batch")
	}
}

// TestShutdownDrainsActiveWatchStream pins the graceful-shutdown ordering:
// an open ?watch=1 stream on an in-flight job must not stall Shutdown for
// the full grace period — closing the scheduler first terminates the job,
// the stream drains, and Serve returns promptly and cleanly.
func TestShutdownDrainsActiveWatchStream(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", Parallel: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()

	client := NewClient("http://" + srv.Addr())
	long := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 500000, Seed: 8}
	states, err := client.Submit(context.Background(), []JobRequest{long})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, srv, states[0].ID, StatusRunning)

	watchDone := make(chan JobState, 1)
	go func() {
		final, _ := client.Wait(context.Background(), states[0].ID)
		watchDone <- final
	}()
	// Give the watcher time to attach before pulling the plug.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean shutdown", err)
		}
	case <-time.After(2 * shutdownGrace):
		t.Fatal("Serve did not return after context cancel")
	}
	if took := time.Since(start); took >= shutdownGrace {
		t.Fatalf("shutdown took %v — the watch stream stalled the drain past the %v grace", took, shutdownGrace)
	}
	if final := <-watchDone; final.Status == StatusRunning || final.Status == StatusQueued {
		t.Fatalf("watcher observed non-terminal final state %s", final.Status)
	}
}

// TestServeClosesStalledHeaders pins the slow-header guard: a connection
// that never finishes its request headers is closed once readHeaderTimeout
// passes, instead of holding a server goroutine forever.
func TestServeClosesStalledHeaders(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		<-serveErr
	})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the header block never ends.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: fleserve\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server closes without replying: EOF (or a reset), never a
	// response and never our own read deadline.
	n, err := conn.Read(make([]byte, 512))
	var netErr net.Error
	if err == nil || (errors.As(err, &netErr) && netErr.Timeout()) {
		t.Fatalf("read on a stalled request = (%d bytes, %v), want the server to close the connection", n, err)
	}
	if took := time.Since(start); took < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", took, readHeaderTimeout)
	}
}

// TestSubmitRejectsInvalidParamsWhole pins the whole-batch validation: a
// request whose resolved parameters cannot run (size below MinN, bad or
// over-bound trial counts) rejects the batch at submit time instead of
// half-running it.
func TestSubmitRejectsInvalidParamsWhole(t *testing.T) {
	srv, client := newTestServer(t, Config{MaxTrials: 500})
	ctx := context.Background()
	bad := []struct {
		name string
		req  JobRequest
	}{
		{"n below MinN", JobRequest{Scenario: "ring/a-lead/attack=rushing-equal", N: 4, Trials: 10, Seed: 1}},
		{"trials over bound", JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 501, Seed: 1}},
		{"negative trials", JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: -5, Seed: 1}},
		{"negative n", JobRequest{Scenario: "ring/basic-lead/fifo", N: -8, Trials: 10, Seed: 1}},
	}
	for _, tc := range bad {
		if _, err := client.Submit(ctx, []JobRequest{quickJob, tc.req}); err == nil {
			t.Fatalf("%s: batch accepted", tc.name)
		}
	}
	if st := srv.Scheduler().Stats(); st.Jobs.Submitted != 0 {
		t.Fatalf("rejected batches still recorded %d submissions", st.Jobs.Submitted)
	}
}

// TestSubmitRejectsOutOfRangeTarget pins the submit-time target check: on
// every registered attack scenario, a target that is not a leader of the
// resolved ring (n+1, and −1) answers POST /jobs with 400, so no job is
// accepted whose run could only fail or summarize a leader that cannot
// exist.
func TestSubmitRejectsOutOfRangeTarget(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	checked := 0
	for _, sc := range scenario.All() {
		if sc.Attack == "" {
			continue
		}
		checked++
		for _, target := range []int64{int64(sc.N) + 1, -1} {
			body, err := json.Marshal(map[string][]JobRequest{
				"jobs": {{Scenario: sc.Name, Trials: 1, Target: target, Seed: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s target=%d: POST /jobs answered %d %s, want 400", sc.Name, target, w.Code, w.Body)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no attack scenarios registered")
	}
	if st := srv.Scheduler().Stats(); st.Jobs.Submitted != 0 {
		t.Fatalf("rejected submissions still recorded %d jobs", st.Jobs.Submitted)
	}
}

// TestStatsCountLaneBlocks: a plain 32-trial job of a sum ring runs its
// trials as two lane blocks, and /statz reports them. Other tests in the
// process run lane blocks too, so the count must rise, not reach an exact
// value.
func TestStatsCountLaneBlocks(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	for _, name := range []string{"ring/a-lead/fifo", "ring/basic-lead/fifo"} {
		before, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		states, err := client.Submit(ctx, []JobRequest{{Scenario: name, Trials: 32, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := client.Wait(ctx, states[0].ID); err != nil || final.Status != StatusDone {
			t.Fatalf("%s: job ended %v, %v", name, final.Status, err)
		}
		after, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if after.Lanes.Blocks < before.Lanes.Blocks+2 {
			t.Errorf("%s: /statz lane blocks %d → %d, want a rise of at least 2", name, before.Lanes.Blocks, after.Lanes.Blocks)
		}
	}
}

// TestRetiredJobsAreBounded pins the resident-daemon memory bound for both
// payloads: failed and canceled records are dropped oldest-first once the
// retention cap (the cache capacity) is exceeded.
func TestRetiredJobsAreBounded(t *testing.T) {
	payloads := []struct {
		name string
		// submit queues one small request and returns its id.
		submit func(ctx context.Context, c *Client, seed int64) (string, error)
		cancel func(s *Scheduler, id string) bool
		// status reads a retained record's status; false once it is gone.
		status func(s *Scheduler, id string) (JobStatus, bool)
	}{
		{"jobs",
			func(ctx context.Context, c *Client, seed int64) (string, error) {
				states, err := c.Submit(ctx, []JobRequest{{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 50, Seed: seed}})
				if err != nil {
					return "", err
				}
				return states[0].ID, nil
			},
			(*Scheduler).Cancel,
			func(s *Scheduler, id string) (JobStatus, bool) {
				j, ok := s.Job(id)
				if !ok {
					return "", false
				}
				return j.State().Status, true
			}},
		{"certs",
			func(ctx context.Context, c *Client, seed int64) (string, error) {
				states, err := c.SubmitCerts(ctx, []CertRequest{{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 50, Seed: seed}})
				if err != nil {
					return "", err
				}
				return states[0].ID, nil
			},
			(*Scheduler).CancelCert,
			func(s *Scheduler, id string) (JobStatus, bool) {
				j, ok := s.Cert(id)
				if !ok {
					return "", false
				}
				return j.State().Status, true
			}},
	}
	for _, p := range payloads {
		t.Run(p.name, func(t *testing.T) {
			// One chunk per job: the blocker's single engine run holds the
			// only slot from start to cancel, with no chunk boundary at
			// which a queued sweep could take it.
			srv, client := newTestServer(t, Config{CacheBytes: 2 * entryOverhead, FleetChunk: DefaultMaxTrials})
			ctx := context.Background()
			sched := srv.Scheduler()

			// Hold the single engine slot so the requests under test stay
			// queued and cancel deterministically.
			blocker := JobRequest{Scenario: "ring/a-lead/fifo", N: 24, Trials: 500000, Seed: 77}
			blockerStates, err := client.Submit(ctx, []JobRequest{blocker})
			if err != nil {
				t.Fatalf("submit blocker: %v", err)
			}
			waitStatus(t, srv, blockerStates[0].ID, StatusRunning)

			// poll waits for cond: retirement runs just after a record's
			// done channel closes.
			poll := func(cond func() bool) bool {
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
					if cond() {
						return true
					}
					time.Sleep(5 * time.Millisecond)
				}
				return false
			}
			var ids []string
			for seed := int64(0); seed < 3; seed++ {
				id, err := p.submit(ctx, client, seed)
				if err != nil {
					t.Fatalf("submit seed %d: %v", seed, err)
				}
				if !p.cancel(sched, id) {
					t.Fatalf("cancel seed %d", seed)
				}
				if !poll(func() bool { st, _ := p.status(sched, id); return st == StatusCanceled }) {
					t.Fatalf("seed %d never reached canceled", seed)
				}
				ids = append(ids, id)
			}
			// Cap 2: the first canceled record must be gone, the last two kept.
			if !poll(func() bool { _, ok := p.status(sched, ids[0]); return !ok }) {
				t.Fatal("oldest retired record still retained beyond the cap")
			}
			for _, id := range ids[1:] {
				st, ok := p.status(sched, id)
				if !ok {
					t.Fatalf("record %s dropped while under the cap", id)
				}
				if st != StatusCanceled {
					t.Fatalf("retained record has status %s", st)
				}
			}
			if !sched.Cancel(blockerStates[0].ID) {
				t.Fatal("cancel blocker")
			}
		})
	}
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, srv *Server, id string, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := srv.Scheduler().Job(id)
		if ok && j.State().Status == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}
