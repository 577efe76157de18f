package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
	"repro/internal/service"
)

// Request classes of the serve mix, in tiling order.
const (
	classCached = iota
	classFresh
	classCertify
)

var (
	serveClasses = []string{"cached", "fresh", "certify"}
	// serveMix is the 8:1:1 cached:fresh:certify weight tiling.
	serveMix = []int{8, 1, 1}
)

const (
	serveScenario = "ring/a-lead/fifo" // cached and fresh jobs, n=64, default trials
	serveN        = 64
	certScenario  = "ring/basic-lead/fifo" // certifications, n=16, MaxK=1
	certN         = 16
	// certVerdict is what a k ≤ 1 sweep of Basic-LEAD must conclude: one
	// adversary controls it (CERTIFICATES.md, ring/basic-lead/attack=basic-single).
	certVerdict = equilibrium.VerdictExploitable
	// sampleChecks is how many fresh results of each kind are recomputed
	// in-process after the timed window.
	sampleChecks = 3
	// idleProbes is how many idle-daemon submissions time the cache-hit
	// path in-process and over HTTP.
	idleProbes = 200
	// serveWindows splits the timed loop into equal windows; the
	// throughput metrics are medians over them.
	serveWindows = 10
)

// daemon is one in-process service.Server on a loopback port.
type daemon struct {
	srv    *service.Server
	cancel context.CancelFunc
	done   chan error
	url    string
}

// startDaemon boots a server and waits for its health check.
func startDaemon(ctx context.Context, cfg service.Config) (*daemon, error) {
	cfg.Addr = "127.0.0.1:0"
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := srv.Listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	d := &daemon{srv: srv, cancel: cancel, done: make(chan error, 1), url: "http://" + srv.Addr()}
	go func() { d.done <- srv.Serve(sctx, ln) }()
	if err := service.NewClient(d.url).Health(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("health: %w", err)
	}
	return d, nil
}

// stop shuts the server down and waits for Serve to return.
func (d *daemon) stop() {
	d.cancel()
	<-d.done
}

// serveBench drives one RoleSingle daemon with a closed loop of clients.
type serveBench struct {
	cfg     runConfig
	d       *daemon
	cached  service.JobRequest
	prewarm []byte
	// pass counts run calls; it enters every fresh seed, so a second
	// loop on the same daemon never replays the first one's results.
	pass uint64
}

// setUp boots the daemon and pre-warms the cached identity, which also
// warms the daemon's arena pool.
func (b *serveBench) setUp(ctx context.Context) error {
	d, err := startDaemon(ctx, service.Config{Role: service.RoleSingle})
	if err != nil {
		return err
	}
	b.d = d
	b.cached = service.JobRequest{Scenario: serveScenario, N: serveN, Seed: derive(b.cfg.seed, 0x5e7e)}
	st, err := submitWait(ctx, service.NewClient(d.url), b.cached, nil, false)
	if err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	b.prewarm = st.Result
	return nil
}

func (b *serveBench) close() {
	if b.d != nil {
		b.d.stop()
	}
}

// submitWait submits one job and follows it to a terminal state. onLine,
// when set, sees the time and status of the submit response and of every
// later state. With pollQueued it reads the job with plain GETs while it is
// still queued, before following the watch stream: the stream re-checks a
// job only every 100 ms, too coarse to see when a short job starts.
func submitWait(ctx context.Context, c *service.Client, req service.JobRequest, onLine func(time.Time, service.JobStatus), pollQueued bool) (service.JobState, error) {
	states, err := c.Submit(ctx, []service.JobRequest{req})
	if err != nil {
		return service.JobState{}, err
	}
	st := states[0]
	if onLine != nil {
		onLine(time.Now(), st.Status)
	}
	for pollQueued && st.Status == service.StatusQueued {
		if st, err = c.Job(ctx, st.ID); err != nil {
			return st, err
		}
		onLine(time.Now(), st.Status)
	}
	if !st.Status.Terminal() {
		var fn func(service.JobState)
		if onLine != nil {
			fn = func(s service.JobState) { onLine(time.Now(), s.Status) }
		}
		if st, err = c.Watch(ctx, st.ID, fn); err != nil {
			return st, err
		}
	}
	if st.Status != service.StatusDone {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	return st, nil
}

// lifecycle times one followed job: when its status first left queued and
// when it turned terminal.
type lifecycle struct {
	start, running, terminal time.Time
}

func (l *lifecycle) observe(t time.Time, s service.JobStatus) {
	if l.running.IsZero() && s != service.StatusQueued {
		l.running = t
	}
	if s.Terminal() {
		l.terminal = t
	}
}

// freshJob is a fresh result kept for the after-window byte check.
type freshJob struct {
	req    service.JobRequest
	result []byte
}

type freshCert struct {
	req    service.CertRequest
	result []byte
}

// completion is one finished request: when, after the loop started, and
// the engine trials it ran.
type completion struct {
	at     time.Duration
	trials int64
}

// serveClient is one closed-loop client's tallies.
type serveClient struct {
	lat              [3][]float64
	queueWait, runMS []float64
	ops, failed      int
	trials           int64
	done             []completion
	fails            []string // the first failure descriptions
	jobs             []freshJob
	certs            []freshCert
}

func (b *serveBench) run(ctx context.Context, d time.Duration, tr *tracer) *result {
	res := newResult("cached")
	b.pass++
	clients := make([]serveClient, b.cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			b.client(ctx, k, start, d, &clients[k], tr)
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	var queueWait, runMS []float64
	var jobs []freshJob
	var certs []freshCert
	res.rounds = make([]round, serveWindows)
	for i := range res.rounds {
		res.rounds[i].dur = d / serveWindows
	}
	for _, c := range clients {
		for _, e := range c.done {
			if w := int(e.at * serveWindows / d); w < serveWindows {
				res.rounds[w].ops++
				res.rounds[w].trials += e.trials
			}
		}
		for class, xs := range c.lat {
			res.lat[serveClasses[class]] = append(res.lat[serveClasses[class]], xs...)
		}
		queueWait = append(queueWait, c.queueWait...)
		runMS = append(runMS, c.runMS...)
		res.attempted += c.ops
		res.trials += c.trials
		res.failed += c.failed
		res.notes = append(res.notes, c.fails...)
		jobs = append(jobs, c.jobs...)
		certs = append(certs, c.certs...)
	}
	res.named["req_per_s"] = res.opsRate()
	res.named["trials_per_s"] = res.trialsRate()
	for _, class := range serveClasses {
		t := summarize(res.lat[class])
		res.named[class+"_p50_ms"] = t.P50
		if t.TailQ > 0 {
			res.named[fmt.Sprintf("%s_p%g_ms", class, t.TailQ*100)] = t.Tail
		}
	}
	stats, err := service.NewClient(b.d.url).Stats(ctx)
	res.check(err == nil, "statz: %v", err)
	if tr != nil {
		res.layers["service.queue_wait_ms"] = median(queueWait)
		res.layers["service.run_ms"] = median(runMS)
		res.layers["service.cache_hit_rate"] = stats.Cache.HitRate
		res.layers["service.dedup_hits"] = float64(stats.Cache.DedupHits)
		b.idleProbes(ctx, res, tr)
	}
	b.verify(ctx, res, jobs, certs)
	return res
}

// client runs one closed loop until the deadline: each request waits for
// the previous one. Client k starts its tiling k/clients of a block later,
// so the clients' fresh and certify requests do not line up.
func (b *serveBench) client(ctx context.Context, k int, start time.Time, d time.Duration, out *serveClient, tr *tracer) {
	c := service.NewClient(b.d.url)
	block := 0
	for _, w := range serveMix {
		block += w
	}
	offset := k * block / b.cfg.workers
	for i := 0; time.Since(start) < d; i++ {
		class := mixClass(i+offset, serveMix)
		op := tr.start("op."+serveClasses[class], 0)
		t0 := time.Now()
		var err error
		trials := out.trials
		switch class {
		case classCached:
			err = b.cachedReq(ctx, c, op, tr)
		case classFresh:
			err = b.freshReq(ctx, c, k, i, op, tr, out)
		case classCertify:
			err = b.certReq(ctx, c, k, i, op, tr, out)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(op)
		out.ops++
		if err != nil {
			ms = math.Inf(1)
			out.failed++
			if len(out.fails) < 10 {
				out.fails = append(out.fails, fmt.Sprintf("%s request: %v", serveClasses[class], err))
			}
		}
		out.lat[class] = append(out.lat[class], ms)
		out.done = append(out.done, completion{at: time.Since(start), trials: out.trials - trials})
	}
}

// cachedReq replays the pre-warmed identity; the daemon answers inline.
func (b *serveBench) cachedReq(ctx context.Context, c *service.Client, op int, tr *tracer) error {
	s := tr.start("service.client_submit", op)
	states, err := c.Submit(ctx, []service.JobRequest{b.cached})
	tr.end(s)
	if err != nil {
		return err
	}
	if st := states[0]; st.Status != service.StatusDone || !bytes.Equal(st.Result, b.prewarm) {
		return fmt.Errorf("replay of %s came back %s with different bytes", st.ID, st.Status)
	}
	return nil
}

func (b *serveBench) freshReq(ctx context.Context, c *service.Client, k, i, op int, tr *tracer, out *serveClient) error {
	req := b.cached
	req.Seed = derive(b.cfg.seed, 0xf7e5, b.pass, uint64(k), uint64(i))
	l := lifecycle{start: time.Now()}
	s := tr.start("service.client_submit_watch", op)
	st, err := submitWait(ctx, c, req, l.observe, tr != nil)
	tr.end(s)
	if err != nil {
		return err
	}
	var o scenario.Outcome
	if err := json.Unmarshal(st.Result, &o); err != nil {
		return err
	}
	out.trials += int64(o.Trials)
	out.queueWait = append(out.queueWait, float64(l.running.Sub(l.start).Nanoseconds())/1e6)
	out.runMS = append(out.runMS, float64(l.terminal.Sub(l.running).Nanoseconds())/1e6)
	if len(out.jobs) < sampleChecks {
		out.jobs = append(out.jobs, freshJob{req: req, result: st.Result})
	}
	return nil
}

func (b *serveBench) certReq(ctx context.Context, c *service.Client, k, i, op int, tr *tracer, out *serveClient) error {
	req := service.CertRequest{Scenario: certScenario, N: certN, MaxK: 1,
		Seed: derive(b.cfg.seed, 0xce57, b.pass, uint64(k), uint64(i))}
	s := tr.start("service.client_certify_watch", op)
	states, err := c.SubmitCerts(ctx, []service.CertRequest{req})
	st := service.CertState{}
	if err == nil {
		st = states[0]
		if !st.Status.Terminal() {
			st, err = c.WatchCert(ctx, st.ID, nil)
		}
	}
	tr.end(s)
	if err != nil {
		return err
	}
	if st.Status != service.StatusDone {
		return fmt.Errorf("certification %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	var cert equilibrium.Certificate
	if err := json.Unmarshal(st.Result, &cert); err != nil {
		return err
	}
	if cert.Verdict != certVerdict {
		return fmt.Errorf("certification %s: verdict %s, want %s", st.ID, cert.Verdict, certVerdict)
	}
	for _, cand := range cert.Candidates {
		out.trials += int64(cand.Trials)
	}
	if len(out.certs) < sampleChecks {
		out.certs = append(out.certs, freshCert{req: req, result: st.Result})
	}
	return nil
}

// idleProbes times the cache-hit path on the now idle daemon: in-process
// Scheduler.Submit, then the same submission over HTTP.
func (b *serveBench) idleProbes(ctx context.Context, res *result, tr *tracer) {
	sched := b.d.srv.Scheduler()
	inproc := make([]float64, 0, idleProbes)
	for i := 0; i < idleProbes; i++ {
		s := tr.start("service.scheduler_submit", 0)
		t0 := time.Now()
		jobs, err := sched.Submit([]service.JobRequest{b.cached})
		inproc = append(inproc, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(s)
		res.check(err == nil && bytes.Equal(jobs[0].State().Result, b.prewarm),
			"in-process replay: %v", err)
	}
	c := service.NewClient(b.d.url)
	overHTTP := make([]float64, 0, idleProbes)
	for i := 0; i < idleProbes; i++ {
		s := tr.start("service.client_submit", 0)
		t0 := time.Now()
		err := b.cachedReq(ctx, c, 0, nil)
		overHTTP = append(overHTTP, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(s)
		res.check(err == nil, "idle HTTP replay: %v", err)
	}
	res.layers["service.submit_hit_us"] = median(inproc)
	res.layers["service.http_hit_ms"] = median(overHTTP)
}

// verify recomputes a sample of fresh jobs and certificates in-process,
// outside the timed window: the daemon's bytes must equal them exactly.
func (b *serveBench) verify(ctx context.Context, res *result, jobs []freshJob, certs []freshCert) {
	sc, ok := scenario.Find(serveScenario)
	csc, cok := scenario.Find(certScenario)
	if !ok || !cok {
		res.check(false, "serve scenarios missing from the registry")
		return
	}
	for _, j := range jobs {
		res.check(sameOutcome(ctx, sc, j.req, j.result, b.cfg.workers),
			"fresh job seed %d differs from in-process RunOpts", j.req.Seed)
	}
	version := b.d.srv.Scheduler().Version()
	for _, c := range certs {
		cert, err := equilibrium.Certify(ctx, csc, c.req.Seed, equilibrium.Options{
			N: c.req.N, MaxK: c.req.MaxK, Version: version, Workers: b.cfg.workers})
		want, merr := json.Marshal(cert)
		res.check(err == nil && merr == nil && bytes.Equal(want, c.result),
			"certification seed %d differs from in-process Certify", c.req.Seed)
	}
}

// sameOutcome reports whether result equals the marshaled in-process
// RunOpts outcome of req.
func sameOutcome(ctx context.Context, sc scenario.Scenario, req service.JobRequest, result []byte, workers int) bool {
	out, err := sc.RunOpts(ctx, req.Seed, scenario.Opts{N: req.N, Trials: req.Trials, K: req.K,
		Target: req.Target, Workers: workers})
	if err != nil {
		return false
	}
	want, err := json.Marshal(out)
	return err == nil && bytes.Equal(want, result)
}
