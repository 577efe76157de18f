package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/scenario"
)

// maxBatch bounds one POST /jobs submission; large experiment sweeps should
// arrive as several batches rather than one unbounded allocation.
const maxBatch = 10000

// watchPollInterval is how often a watch stream re-checks a job for
// progress between event wakeups.
const watchPollInterval = 100 * time.Millisecond

// BatchRequest is the POST /jobs payload.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchResponse answers POST /jobs: one state per submitted job, in
// request order. Jobs resolved from the cache arrive already done, result
// included.
type BatchResponse struct {
	Jobs []JobState `json:"jobs"`
}

// CertBatchRequest is the POST /certify payload.
type CertBatchRequest struct {
	Certs []CertRequest `json:"certs"`
}

// CertBatchResponse answers POST /certify: one state per submitted sweep,
// in request order. Sweeps resolved from the cache arrive already done,
// certificate included.
type CertBatchResponse struct {
	Certs []CertState `json:"certs"`
}

// errorResponse is the uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// routes assembles the daemon's HTTP surface. Workers expose only the
// operational endpoints: a worker owns no jobs, so the job surface points
// submitters at the coordinator instead of half-working. Coordinators
// additionally serve the chunk-lease exchange under /chunks/; that is all
// that sets them apart from a single node.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("GET /statz", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleStats)
	if s.cfg.Role == RoleWorker {
		reject := func(w http.ResponseWriter, _ *http.Request) {
			writeError(w, http.StatusMisdirectedRequest,
				"this node is a fleet worker; submit jobs to its coordinator at %s", s.cfg.Join)
		}
		mux.HandleFunc("/jobs", reject)
		mux.HandleFunc("/jobs/{id}", reject)
		mux.HandleFunc("/certify", reject)
		mux.HandleFunc("/certify/{id}", reject)
		return mux
	}
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", serveState(s.sched.trials))
	mux.HandleFunc("DELETE /jobs/{id}", serveCancel(s.sched.trials))
	mux.HandleFunc("POST /certify", s.handleCertify)
	mux.HandleFunc("GET /certify/{id}", serveState(s.sched.sweeps))
	mux.HandleFunc("DELETE /certify/{id}", serveCancel(s.sched.sweeps))
	if s.cfg.Role == RoleCoordinator {
		mux.HandleFunc("POST /chunks/claim", s.handleChunkClaim)
		mux.HandleFunc("POST /chunks/result", s.handleChunkResult)
		mux.HandleFunc("POST /chunks/heartbeat", s.handleChunkHeartbeat)
	}
	if s.cfg.Profiling {
		// The daemon serves its own mux, never DefaultServeMux, so the
		// pprof surface exists only when this instance opted in.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error payload.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleHealthz answers liveness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "version": s.sched.Version()})
}

// handleScenarios serves the registry catalog.
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	all := scenario.All()
	descs := make([]scenario.Descriptor, len(all))
	for i, sc := range all {
		descs[i] = sc.Describe()
	}
	writeJSON(w, http.StatusOK, descs)
}

// handleSubmit accepts a job batch. Jobs run on the scheduler's own
// lifetime, not the request's: a client that disconnects after submitting
// still gets its results computed (and cached) for the next asker.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if states, ok := submitBatch(w, r, s.sched.trials, &batch, &batch.Jobs); ok {
		writeJSON(w, http.StatusAccepted, BatchResponse{Jobs: states})
	}
}

// handleCertify accepts a certification batch. Like trial jobs, sweeps run
// on the scheduler's lifetime, and identical requests share one
// computation whose cached certificate replays byte-for-byte.
func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	var batch CertBatchRequest
	if states, ok := submitBatch(w, r, s.sched.sweeps, &batch, &batch.Certs); ok {
		writeJSON(w, http.StatusAccepted, CertBatchResponse{Certs: states})
	}
}

// submitBatch decodes one POST envelope into batch, whose request list is
// *reqs, and submits the list whole. It answers 400 itself and reports
// false on any rejection; otherwise it returns the accepted states, in
// request order, for the caller's response envelope.
func submitBatch[R request, P any](w http.ResponseWriter, r *http.Request, l *lifecycle[R, P], batch any, reqs *[]R) ([]wireState[P], bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(batch); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch: %v", err)
		return nil, false
	}
	if len(*reqs) > maxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds the %d-job limit", len(*reqs), maxBatch)
		return nil, false
	}
	jobs, err := l.submit(*reqs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	states := make([]wireState[P], len(jobs))
	for i, j := range jobs {
		states[i] = j.State()
	}
	return states, true
}

// serveState serves one job's state; with ?watch=1 it streams NDJSON
// progress lines — one state per change (a trial batch's snapshot, a
// sweep's finished candidate), ending with the terminal state, result
// included — until the job finishes or the client goes away.
func serveState[R request, P any](l *lifecycle[R, P]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := l.lookup(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such %sjob", l.label)
			return
		}
		serveWatchable(w, r, j.Done(), func() (any, bool) {
			st := j.State()
			return st, st.Status.Terminal()
		})
	}
}

// serveCancel cancels a queued or running job: 409 once it is terminal,
// 404 when the id is unknown.
func serveCancel[R request, P any](l *lifecycle[R, P]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if l.cancel(id) {
			writeJSON(w, http.StatusOK, map[string]any{"canceled": true})
			return
		}
		if j, ok := l.lookup(id); ok {
			writeError(w, http.StatusConflict, "%sjob is already %s", l.label, j.State().Status)
			return
		}
		writeError(w, http.StatusNotFound, "no such %sjob", l.label)
	}
}

// serveWatchable serves one watchable resource: plain JSON state without
// ?watch=1, an NDJSON change stream with it. state returns the current wire
// state and whether it is terminal; done wakes the stream when it is.
func serveWatchable(w http.ResponseWriter, r *http.Request, done <-chan struct{}, state func() (any, bool)) {
	if watch := r.URL.Query().Get("watch"); watch != "1" && watch != "true" {
		st, _ := state()
		writeJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	ticker := time.NewTicker(watchPollInterval)
	defer ticker.Stop()
	var last []byte
	for {
		st, terminal := state()
		line, err := json.Marshal(st)
		if err != nil {
			return
		}
		if string(line) != string(last) {
			last = line
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if terminal {
			return
		}
		select {
		case <-ticker.C:
		case <-done:
			// A closed channel is permanently ready: left in the select,
			// it would turn every later iteration into a busy spin (the
			// poll pace is the ticker's job). One wakeup is all the event
			// carries, so disable the case after delivering it.
			done = nil
		case <-r.Context().Done():
			return
		}
	}
}

// handleChunkClaim leases one queued trial chunk to a fleet claimant: 200
// with the lease, 204 when nothing is queued (after waiting up to
// claimWait for a chunk if the claim asked to wait), 409 when the
// claimant's code version differs from the coordinator's (shards from a
// different build must never fold into a job).
func (s *Server) handleChunkClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad claim: %v", err)
		return
	}
	if req.Version != s.sched.Version() {
		writeError(w, http.StatusConflict, "version mismatch: coordinator runs %s, claimant runs %s",
			s.sched.Version(), req.Version)
		return
	}
	var wait time.Duration
	if req.Wait {
		wait = claimWait
	}
	lease := s.sched.fleet.claimRemote(r.Context(), wait)
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

// handleChunkResult folds a reported shard into its job, or 410 when the
// lease is gone (expired and re-issued, or the job was canceled) — the
// lease table is what guarantees each chunk merges exactly once. A
// malformed result gets a 400 and fails its job.
func (s *Server) handleChunkResult(w http.ResponseWriter, r *http.Request) {
	var res ChunkResult
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	if err := dec.Decode(&res); err != nil {
		writeError(w, http.StatusBadRequest, "bad result: %v", err)
		return
	}
	held, bad := s.sched.fleet.report(res.Lease, res.Dist, res.Error)
	if !held {
		writeError(w, http.StatusGone, "lease %d is no longer held", res.Lease)
		return
	}
	if bad != nil {
		writeError(w, http.StatusBadRequest, "bad result: %v", bad)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": true})
}

// handleChunkHeartbeat extends a live lease, or 410 when it is gone and
// the claimant should abandon the run.
func (s *Server) handleChunkHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb ChunkHeartbeat
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&hb); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	if !s.sched.fleet.heartbeat(hb.Lease) {
		writeError(w, http.StatusGone, "lease %d is no longer held", hb.Lease)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"extended": true})
}

// handleStats serves the scheduler's operational counters, plus the claim
// loop's on a worker node.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sched.Stats()
	if s.worker != nil {
		st.Fleet.Claimed, st.Fleet.Done, st.Fleet.Errors = s.worker.Counters()
	}
	writeJSON(w, http.StatusOK, st)
}
