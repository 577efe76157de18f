package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

const (
	fleetScenario = "ring/a-lead/fifo"
	fleetN        = 256
	fleetTrials   = 512
	// fleetChunk splits each job into fleetTrials/fleetChunk leases.
	fleetChunk = 64
	// fleetLeaseTTL makes claimants heartbeat every TTL/3, shorter than
	// one chunk, so every remote chunk sends heartbeats.
	fleetLeaseTTL = 150 * time.Millisecond
)

// timingProxy forwards the worker's /chunks/* traffic to the coordinator
// and, while recording, times each round trip and remembers which job each
// lease belongs to.
type timingProxy struct {
	target string
	client *http.Client
	srv    *http.Server
	ln     net.Listener
	done   chan error

	recording atomic.Bool
	claims    atomic.Int64 // every claim attempt, recording or not
	mu        sync.Mutex
	tr        *tracer
	rtt       map[string][]float64         // ms per endpoint: claim, heartbeat, result
	leaseJob  map[int64]service.ChunkLease // lease → the lease granted
	lastSent  map[int64]time.Time          // job seed → when its last remote result was forwarded
	finalSent map[int64]time.Time          // job seed → when the result of its final chunk was forwarded
}

func startProxy(target string) (*timingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &timingProxy{target: target, client: &http.Client{Timeout: 30 * time.Second}, ln: ln,
		done: make(chan error, 1)}
	p.reset(nil)
	p.srv = &http.Server{Handler: p}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *timingProxy) url() string { return "http://" + p.ln.Addr().String() }

// reset clears the recordings and sets the tracer of the next loop.
func (p *timingProxy) reset(tr *tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tr = tr
	p.rtt = map[string][]float64{}
	p.leaseJob = map[int64]service.ChunkLease{}
	p.lastSent = map[int64]time.Time{}
	p.finalSent = map[int64]time.Time{}
	p.recording.Store(tr != nil)
}

func (p *timingProxy) stop() {
	_ = p.srv.Shutdown(context.Background())
	<-p.done // Serve returns http.ErrServerClosed once Shutdown begins
	p.client.CloseIdleConnections()
}

// ServeHTTP forwards one request and relays the response.
func (p *timingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	sent := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := time.Now()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if r.URL.Path == "/chunks/claim" {
		p.claims.Add(1)
	}
	if p.recording.Load() {
		p.note(r.URL.Path, resp.StatusCode, body, out, sent, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}

// note records one forwarded exchange. Claims count only when they
// granted a lease; empty polls are the worker's idle loop.
func (p *timingProxy) note(path string, status int, reqBody, respBody []byte, sent, got time.Time) {
	ms := float64(got.Sub(sent).Nanoseconds()) / 1e6
	p.mu.Lock()
	defer p.mu.Unlock()
	switch path {
	case "/chunks/claim":
		var lease service.ChunkLease
		if status != http.StatusOK || json.Unmarshal(respBody, &lease) != nil {
			return
		}
		p.leaseJob[lease.Lease] = lease
		p.rtt["claim"] = append(p.rtt["claim"], ms)
	case "/chunks/heartbeat":
		p.rtt["heartbeat"] = append(p.rtt["heartbeat"], ms)
	case "/chunks/result":
		var res service.ChunkResult
		if json.Unmarshal(reqBody, &res) == nil {
			if lease, ok := p.leaseJob[res.Lease]; ok {
				p.lastSent[lease.Job.Seed] = sent
				if lease.End == lease.Job.Trials {
					p.finalSent[lease.Job.Seed] = sent
				}
			}
		}
		p.rtt["result"] = append(p.rtt["result"], ms)
	default:
		return
	}
	p.tr.record("fleet.proxy"+path, sent, got)
}

// fleetBench is a coordinator plus one worker node that joins it through
// the timing proxy, each with one claimant running one engine worker.
type fleetBench struct {
	cfg    runConfig
	coord  *daemon
	proxy  *timingProxy
	worker *service.Server
	pass   uint64 // run calls so far; enters every job seed, as in serveBench
}

// setUp boots the coordinator, the proxy and the worker, waits until the
// worker has polled through the proxy, and warms both claimants with one
// job.
func (b *fleetBench) setUp(ctx context.Context) error {
	coord, err := startDaemon(ctx, service.Config{Role: service.RoleCoordinator, Workers: 1, Parallel: 1,
		FleetChunk: fleetChunk, LeaseTTL: fleetLeaseTTL})
	if err != nil {
		return err
	}
	b.coord = coord
	if b.proxy, err = startProxy(coord.url); err != nil {
		return err
	}
	b.worker, err = service.New(service.Config{Role: service.RoleWorker, Join: b.proxy.url(),
		Workers: 1, Parallel: 1})
	if err != nil {
		return err
	}
	for b.proxy.claims.Load() == 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	req := service.JobRequest{Scenario: fleetScenario, N: fleetN, Trials: 2 * fleetChunk, Seed: derive(b.cfg.seed, 0xf1ee)}
	_, err = submitWait(ctx, service.NewClient(coord.url), req, nil, false)
	return err
}

// close stops the worker first, so its claim loop never polls a stopped
// proxy, then the proxy and the coordinator.
func (b *fleetBench) close() {
	if b.worker != nil {
		b.worker.Close()
	}
	if b.proxy != nil {
		b.proxy.stop()
	}
	if b.coord != nil {
		b.coord.stop()
	}
}

func (b *fleetBench) run(ctx context.Context, d time.Duration, tr *tracer) *result {
	res := newResult("job")
	b.pass++
	b.proxy.reset(tr)
	c := service.NewClient(b.coord.url)
	before, err := c.Stats(ctx)
	res.check(err == nil, "statz: %v", err)
	terminal := map[int64]time.Time{}
	var sample []freshJob
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		req := service.JobRequest{Scenario: fleetScenario, N: fleetN, Trials: fleetTrials,
			Seed: derive(b.cfg.seed, 0xf1e7, b.pass, uint64(i))}
		op := tr.start("op.job", 0)
		t0 := time.Now()
		var l lifecycle
		s := tr.start("service.client_submit_watch", op)
		st, err := submitWait(ctx, c, req, l.observe, false)
		tr.end(s)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(op)
		res.attempted++
		res.rounds = append(res.rounds, round{dur: time.Since(t0), ops: 1})
		if err != nil {
			res.fail("fleet job seed %d: %v", req.Seed, err)
			res.lat["job"] = append(res.lat["job"], math.Inf(1))
			continue
		}
		var o scenario.Outcome
		if err := json.Unmarshal(st.Result, &o); err != nil || o.Trials != fleetTrials {
			res.fail("fleet job seed %d: result has %d trials (%v)", req.Seed, o.Trials, err)
			res.lat["job"] = append(res.lat["job"], math.Inf(1))
			continue
		}
		res.lat["job"] = append(res.lat["job"], ms)
		res.trials += int64(o.Trials)
		res.rounds[len(res.rounds)-1].trials = int64(o.Trials)
		terminal[req.Seed] = l.terminal
		if len(sample) < sampleChecks {
			sample = append(sample, freshJob{req: req, result: st.Result})
		}
	}
	res.elapsed = time.Since(start)
	after, err := c.Stats(ctx)
	res.check(err == nil, "statz: %v", err)
	t := summarize(res.lat["job"])
	res.named["trials_per_s"] = res.trialsRate()
	res.named["job_p50_ms"] = t.P50
	if t.TailQ > 0 {
		res.named[fmt.Sprintf("job_p%g_ms", t.TailQ*100)] = t.Tail
	}
	chunks := after.Fleet.ChunksCompleted - before.Fleet.ChunksCompleted
	remote := after.Fleet.RemoteClaims - before.Fleet.RemoteClaims
	res.named["remote_chunk_frac"] = float64(remote) / float64(max(chunks, 1))
	if tr != nil {
		b.proxy.mu.Lock()
		res.layers["fleet.claim_rtt_ms"] = median(b.proxy.rtt["claim"])
		res.layers["fleet.heartbeat_rtt_ms"] = median(b.proxy.rtt["heartbeat"])
		res.layers["fleet.result_rtt_ms"] = median(b.proxy.rtt["result"])
		// Chunks are leased in index order, so the final chunk is
		// normally the last to report; jobs whose final chunk ran remotely
		// time the merge alone. Without one, every remotely reported job
		// counts, and the wait may include a local chunk's tail.
		sent := b.proxy.finalSent
		if len(sent) == 0 {
			sent = b.proxy.lastSent
		}
		var waits []float64
		for seed, at := range sent {
			if end, ok := terminal[seed]; ok {
				waits = append(waits, float64(end.Sub(at).Nanoseconds())/1e6)
			}
		}
		b.proxy.mu.Unlock()
		res.layers["fleet.merge_wait_ms"] = median(waits)
		res.layers["fleet.remote_chunk_frac"] = res.named["remote_chunk_frac"]
		res.layers["fleet.reissued"] = float64(after.Fleet.Reissued - before.Fleet.Reissued)
	}
	b.proxy.reset(nil)
	if sc, ok := scenario.Find(fleetScenario); ok {
		for _, j := range sample {
			res.check(sameOutcome(ctx, sc, j.req, j.result, b.cfg.workers),
				"fleet job seed %d differs from a single-node RunOpts", j.req.Seed)
		}
	} else {
		res.check(false, "no scenario %s", fleetScenario)
	}
	return res
}
