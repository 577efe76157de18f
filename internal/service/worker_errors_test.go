package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCounters polls the worker's counters until cond is satisfied or the
// deadline passes.
func waitCounters(t *testing.T, w *Server, cond func(claimed, done, errs int64) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(w.Worker().Counters()) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	c, d, e := w.Worker().Counters()
	t.Fatalf("worker counters never settled: claimed %d done %d errs %d", c, d, e)
}

// TestWorkerUnreachableCoordinatorCountsErrors pins the claim-loop
// transport-error branch: a worker joined to a dead address keeps polling
// on the retry back-off and surfaces every failed claim in its error
// counter instead of crashing or spinning.
func TestWorkerUnreachableCoordinatorCountsErrors(t *testing.T) {
	w, err := New(Config{Version: "fleet-dead", Role: RoleWorker,
		Join: "http://127.0.0.1:1", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitCounters(t, w, func(claimed, done, errs int64) bool { return errs >= 1 })
	if claimed, done, _ := w.Worker().Counters(); claimed != 0 || done != 0 {
		t.Fatalf("work appeared from a dead coordinator: claimed %d done %d", claimed, done)
	}
}

// TestWorkerSurvivesBrokenCoordinatorReplies pins the claim decode guards:
// a coordinator that answers 500, then unparseable lease JSON, only ever
// moves the error counter — the worker never treats garbage as a lease.
func TestWorkerSurvivesBrokenCoordinatorReplies(t *testing.T) {
	var calls atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/chunks/claim" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if calls.Add(1) == 1 {
			http.Error(rw, "scheduler mid-restart", http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"lease": "not a number"`))
	}))
	defer coord.Close()

	w, err := New(Config{Version: "fleet-garbage", Role: RoleWorker,
		Join: coord.URL, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitCounters(t, w, func(claimed, done, errs int64) bool { return errs >= 2 })
	if claimed, done, _ := w.Worker().Counters(); claimed != 0 || done != 0 {
		t.Fatalf("garbage replies produced work: claimed %d done %d", claimed, done)
	}
}

// TestWorkerReportsUnknownScenario pins the lease-validation branch of
// runLease: a lease naming a scenario this build does not register is
// answered with a ChunkResult carrying an error, so the coordinator can
// fail the job instead of waiting out the lease.
func TestWorkerReportsUnknownScenario(t *testing.T) {
	leased := make(chan struct{}, 1)
	reported := make(chan ChunkResult, 1)
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunks/claim":
			select {
			case leased <- struct{}{}:
				rw.Header().Set("Content-Type", "application/json")
				json.NewEncoder(rw).Encode(ChunkLease{
					Lease:    7,
					Job:      JobRequest{Scenario: "no/such/scenario", Trials: 10},
					Start:    0,
					End:      10,
					TTLMilli: 5000,
				})
			default:
				rw.WriteHeader(http.StatusNoContent)
			}
		case "/chunks/result":
			var res ChunkResult
			if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
				t.Errorf("bad result body: %v", err)
			}
			select {
			case reported <- res:
			default:
			}
			rw.WriteHeader(http.StatusOK)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
			rw.WriteHeader(http.StatusNotFound)
		}
	}))
	defer coord.Close()

	w, err := New(Config{Version: "fleet-noscn", Role: RoleWorker,
		Join: coord.URL, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	select {
	case res := <-reported:
		if res.Lease != 7 || res.Error == "" || res.Dist != nil {
			t.Fatalf("want an error result for lease 7, got %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never reported the bad lease")
	}
	waitCounters(t, w, func(claimed, done, errs int64) bool {
		return claimed == 1 && done == 0 && errs >= 1
	})
}

// TestWorkerGivesUpAfterRepeatedResultRejections pins report's retry
// exhaustion: a coordinator that persistently 500s the result post makes
// the worker stop after its bounded retries and count the loss, rather
// than retrying forever or claiming the chunk done.
func TestWorkerGivesUpAfterRepeatedResultRejections(t *testing.T) {
	leased := make(chan struct{}, 1)
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunks/claim":
			select {
			case leased <- struct{}{}:
				rw.Header().Set("Content-Type", "application/json")
				json.NewEncoder(rw).Encode(ChunkLease{
					Lease:    3,
					Job:      JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 4, Seed: 1},
					Start:    0,
					End:      4,
					TTLMilli: 60000,
				})
			default:
				rw.WriteHeader(http.StatusNoContent)
			}
		case "/chunks/result":
			http.Error(rw, "persistent store failure", http.StatusInternalServerError)
		case "/chunks/heartbeat":
			rw.WriteHeader(http.StatusOK)
		default:
			rw.WriteHeader(http.StatusNotFound)
		}
	}))
	defer coord.Close()

	w, err := New(Config{Version: "fleet-reject", Role: RoleWorker,
		Join: coord.URL, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitCounters(t, w, func(claimed, done, errs int64) bool {
		return claimed == 1 && done == 0 && errs >= 1
	})
}

// TestWorkerPacesImmediateEmptyAnswers pins the claim loop against a
// coordinator that answers every claim 204 at once, as a build that
// ignores the wait flag does: the worker must not spin. Its first claim is
// the join handshake and does not wait; every later one asks to.
func TestWorkerPacesImmediateEmptyAnswers(t *testing.T) {
	var (
		mu     sync.Mutex
		claims []ClaimRequest
		at     []time.Time
	)
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad claim body: %v", err)
		}
		mu.Lock()
		claims = append(claims, req)
		at = append(at, time.Now())
		mu.Unlock()
		rw.WriteHeader(http.StatusNoContent)
	}))
	defer coord.Close()

	w, err := New(Config{Version: "fleet-pace", Role: RoleWorker, Join: coord.URL, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(1200 * time.Millisecond)
	w.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(claims) < 2 {
		t.Fatalf("worker sent %d claims in 1.2 s, want at least 2", len(claims))
	}
	inFirstSecond := 0
	for _, ts := range at {
		if ts.Sub(at[0]) < time.Second {
			inFirstSecond++
		}
	}
	if inFirstSecond > 8 {
		t.Fatalf("worker sent %d claims within 1 s to a coordinator answering 204 at once, want at most 8", inFirstSecond)
	}
	if claims[0].Wait {
		t.Fatal("the handshake claim asked to wait")
	}
	for i, c := range claims[1:] {
		if !c.Wait {
			t.Fatalf("claim %d after the handshake did not ask to wait", i+1)
		}
	}
}
