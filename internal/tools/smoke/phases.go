package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/equilibrium"
	"repro/internal/mardsl"
	// Its registrations of the embedded MAR spec twins make the in-process
	// registry match the daemon's catalog.
	"repro/internal/mardsl/marlib"
	"repro/internal/service"
)

// Batch sizes. The service phase's distinct jobs are cheap: its point is
// scheduling and caching, not statistical power. The certify phase's
// per-candidate budget resolves the ε question at n ≤ certMaxN (early
// stopping usually ends a candidate near a third of it). dslSeed
// generates the dsl phase's specs.
const (
	serviceDistinct, serviceTrials     = 20, 100
	certDistinct, certTrials, certMaxN = 10, 1500, 24
	dslSeed                            = 20180516
)

func servicePhase(ctx context.Context, cfg config) error {
	n, err := startNode(ctx, cfg.fleserve, "-parallel", "2")
	if err != nil {
		return err
	}
	defer n.stop()
	client := n.client()
	if err := checkCatalog(ctx, client); err != nil {
		return err
	}
	// 20 distinct jobs × 5 identical copies = the 100-job batch.
	distinct := pickDistinct(serviceDistinct, serviceTrials, 1000, 0)
	batch := slices.Repeat(distinct, 5)
	states, err := client.Submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit %d-job batch: %w", len(batch), err)
	}
	if len(states) != len(batch) {
		return fmt.Errorf("submitted %d jobs, got %d states", len(batch), len(states))
	}
	// The 5 copies of each distinct job must share one content address.
	for i, st := range states {
		if want := states[i%len(distinct)].ID; st.ID != want {
			return fmt.Errorf("job %d (%s) got id %s, its first copy got %s", i, st.Scenario, st.ID, want)
		}
	}
	first := make(map[string][]byte, len(distinct))
	for i, req := range distinct {
		if first[states[i].ID], err = awaitDirect(ctx, client, states[i].ID, req); err != nil {
			return err
		}
	}
	if err := replay(ctx, client.Submit, jobView, batch, first); err != nil {
		return err
	}
	// The acceptance bar: a job-level hit rate ≥ 0.8 on the 100-job batch
	// (the replay round only pushes it higher).
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	switch {
	case st.Cache.HitRate < 0.8:
		return fmt.Errorf("cache hit-rate %.3f < 0.8 (hits=%d misses=%d)", st.Cache.HitRate, st.Cache.Hits, st.Cache.Misses)
	case st.Jobs.Fresh != int64(len(distinct)):
		return fmt.Errorf("engine ran %d jobs for %d distinct requests", st.Jobs.Fresh, len(distinct))
	case st.Fleet.ChunksCompleted < st.Jobs.Fresh:
		// A single node runs every trial job through its chunk queue.
		return fmt.Errorf("%d chunks completed for %d fresh jobs", st.Fleet.ChunksCompleted, st.Jobs.Fresh)
	case st.Workers.ArenasAllocated == 0:
		return fmt.Errorf("no persistent arenas allocated")
	case st.Trials.Completed == 0:
		return fmt.Errorf("stats report zero completed trials")
	}
	fmt.Printf("smoke: service: %d jobs (%d distinct) in %d chunks, hit-rate %.2f, %d trials at %.0f/s, %d arenas\n",
		st.Jobs.Submitted, st.Jobs.Fresh, st.Fleet.ChunksCompleted, st.Cache.HitRate, st.Trials.Completed,
		st.Trials.PerSecond, st.Workers.ArenasAllocated)
	return nil
}

func certifyPhase(ctx context.Context, cfg config) error {
	n, err := startNode(ctx, cfg.fleserve, "-parallel", "2")
	if err != nil {
		return err
	}
	defer n.stop()
	var batch []service.CertRequest
	for _, r := range pickDistinct(certDistinct, certTrials, 2000, certMaxN) {
		batch = append(batch, service.CertRequest{Scenario: r.Scenario, N: r.N, Trials: r.Trials, Seed: r.Seed})
	}
	if len(batch) < certDistinct {
		return fmt.Errorf("only %d cheap scenarios available, need %d", len(batch), certDistinct)
	}
	client := n.client()
	states, err := client.SubmitCerts(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit %d-sweep batch: %w", len(batch), err)
	}
	first := make(map[string][]byte, len(batch))
	verdicts := map[equilibrium.Verdict]int{}
	progressed := false
	for _, st := range states {
		cert, raw, err := awaitCert(ctx, client, st.ID, func(line service.CertState) {
			progressed = progressed || line.Progress != nil
		})
		if err != nil {
			return err
		}
		verdicts[cert.Verdict]++
		first[st.ID] = raw
	}
	if err := replay(ctx, client.SubmitCerts, certView, batch, first); err != nil {
		return err
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	switch {
	case !progressed:
		return fmt.Errorf("no watch stream carried per-candidate progress")
	case st.Jobs.Certificates != int64(2*len(batch)):
		return fmt.Errorf("stats count %d certificate submissions, want %d", st.Jobs.Certificates, 2*len(batch))
	case st.Jobs.Fresh != int64(len(batch)):
		return fmt.Errorf("engine ran %d sweeps for %d distinct requests", st.Jobs.Fresh, len(batch))
	case verdicts[equilibrium.VerdictFair]+verdicts[equilibrium.VerdictExploitable] == 0:
		return fmt.Errorf("every sweep came back inconclusive: the budget resolves nothing")
	}
	fmt.Printf("smoke: certify: %d sweeps certified (%d fair, %d exploitable, %d inconclusive), replays byte-identical\n", len(batch),
		verdicts[equilibrium.VerdictFair], verdicts[equilibrium.VerdictExploitable], verdicts[equilibrium.VerdictInconclusive])
	return nil
}

// fleetChunk is the fleet's lease size. At n = 80 one chunk of fleetJob
// costs about 100–150 ms of CPU in 16-trial lane blocks, several hundred ms
// of wall clock while five claimants share the machine, so worker 2 dies
// well inside its first lease; a chunk of a few ms could be reported
// between the check that worker 2 holds it and the kill. The job's 16
// chunks keep the queue non-empty while the five claimants take their
// first ones.
const fleetChunk = 8000

var fleetJob = service.JobRequest{Scenario: "ring/a-lead/fifo", N: 80, Trials: 16 * fleetChunk, Seed: 20180516}

func fleetPhase(ctx context.Context, cfg config) error {
	cacheDir, err := os.MkdirTemp("", "smoke-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	coordArgs := []string{"-role", "coordinator", "-cache-dir", cacheDir,
		"-fleet-chunk", strconv.Itoa(fleetChunk), "-parallel", "1"}
	// A short lease brings the killed worker's chunks back within seconds.
	coord, err := startNode(ctx, cfg.fleserve, append(coordArgs, "-lease", "1s")...)
	if err != nil {
		return err
	}
	defer coord.stop()
	var workers [2]*node
	for i := range workers {
		if workers[i], err = startNode(ctx, cfg.fleserve, "-role", "worker", "-join", coord.url(), "-parallel", "2"); err != nil {
			return err
		}
		defer workers[i].stop()
	}

	client := coord.client()
	states, err := client.Submit(ctx, []service.JobRequest{fleetJob})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if err := killInLease(ctx, client, workers[1]); err != nil {
		return err
	}
	got, err := awaitDirect(ctx, client, states[0].ID, fleetJob)
	if err != nil {
		return err
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	switch {
	case st.Fleet.RemoteClaims == 0:
		return fmt.Errorf("no chunks were claimed over HTTP: the workers never participated")
	case st.Fleet.Reissued == 0:
		return fmt.Errorf("worker 2 died holding a lease, yet no chunk was re-issued")
	}
	fmt.Printf("smoke: fleet: distributed job byte-identical (%d chunks, %d remote claims, %d re-issued)\n",
		st.Fleet.ChunksCompleted, st.Fleet.RemoteClaims, st.Fleet.Reissued)

	// A fleload mixed batch (cached, fresh, certify) against the live
	// fleet; with no -out, fleload writes its JSON report to stdout.
	load := exec.CommandContext(ctx, cfg.fleload, "-target", coord.url(), "-requests", "40", "-rate", "100",
		"-mix", "6:3:1", "-trials", "2000")
	load.Stderr = os.Stderr
	report, err := load.Output()
	if err != nil {
		return fmt.Errorf("fleload: %w", err)
	}
	var rep struct {
		Errors        int     `json:"errors"`
		ThroughputRPS float64 `json:"throughput_rps"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return fmt.Errorf("fleload report: %w", err)
	}
	// throughput_rps counts successful requests only, so a clean batch
	// reports a positive rate.
	if rep.Errors != 0 || rep.ThroughputRPS <= 0 {
		return fmt.Errorf("fleload recorded %d errors, %f successful rps", rep.Errors, rep.ThroughputRPS)
	}
	fmt.Printf("smoke: fleet: fleload mixed batch clean (%.1f successful rps)\n", rep.ThroughputRPS)

	// A fresh coordinator process on the same cache directory must replay
	// the job from disk with zero engine runs.
	coord.stop()
	coord2, err := startNode(ctx, cfg.fleserve, coordArgs...)
	if err != nil {
		return fmt.Errorf("restart coordinator: %w", err)
	}
	defer coord2.stop()
	client2 := coord2.client()
	if err := replay(ctx, client2.Submit, jobView, []service.JobRequest{fleetJob}, map[string][]byte{states[0].ID: got}); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	st2, err := client2.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statz after restart: %w", err)
	}
	if st2.Jobs.Fresh != 0 || st2.Disk.Hits == 0 {
		return fmt.Errorf("restarted coordinator ran %d fresh engine jobs with %d disk hits, want 0 and > 0",
			st2.Jobs.Fresh, st2.Disk.Hits)
	}
	fmt.Printf("smoke: fleet: coordinator restart replayed from disk (%d disk hits, 0 engine runs)\n", st2.Disk.Hits)
	return nil
}

// killInLease SIGKILLs worker w once its own /statz shows a chunk in
// flight (claimed, neither reported nor failed) while the coordinator
// still has chunks queued, so the kill lands inside a lease that must
// expire and re-issue. It fails if the coordinator's job ends first.
func killInLease(ctx context.Context, coord *service.Client, w *node) error {
	for {
		cs, err := coord.Stats(ctx)
		if err != nil {
			return fmt.Errorf("coordinator statz: %w", err)
		}
		ws, err := w.client().Stats(ctx)
		if err != nil {
			return fmt.Errorf("worker statz: %w", err)
		}
		held := ws.Fleet.Claimed - ws.Fleet.Done - ws.Fleet.Errors
		switch {
		case held >= 1 && cs.Fleet.ChunksQueued > 0:
			w.kill()
			fmt.Printf("smoke: fleet: killed worker 2 holding %d chunk(s), %d queued\n", held, cs.Fleet.ChunksQueued)
			return nil
		case cs.Jobs.InFlight == 0:
			return fmt.Errorf("the job finished before worker 2 had a chunk in flight")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// dslSources are the dsl phase's generated specs. The protocol spec comes
// first: the adversary deviates from it.
func dslSources() []string {
	return []string{mardsl.GenerateProtocol(dslSeed), mardsl.GenerateAdversary(dslSeed)}
}

// dslReference registers dslSources in this process, the reference the dsl
// phase checks the daemon's catalog and results against. It registers at
// most once per process, since the registry refuses a name twice, and
// returns the scenario names the specs created.
var dslReference = sync.OnceValues(func() ([]string, error) {
	var names []string
	for _, src := range dslSources() {
		got, err := marlib.Register(src)
		if err != nil {
			return nil, err
		}
		names = append(names, got...)
	}
	return names, nil
})

func dslPhase(ctx context.Context, cfg config) error {
	dir, err := os.MkdirTemp("", "smoke-dsl-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := []string{"-parallel", "1"}
	for i, src := range dslSources() {
		path := filepath.Join(dir, fmt.Sprintf("spec%d.mar", i))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		args = append(args, "-mar", path)
	}
	n, err := startNode(ctx, cfg.fleserve, args...)
	if err != nil {
		return err
	}
	defer n.stop()
	names, err := dslReference()
	if err != nil || len(names) != 4 {
		return fmt.Errorf("generated specs registered %v, want 4 scenarios (3 honest + 1 attack): %v", names, err)
	}
	client := n.client()
	if err := checkCatalog(ctx, client, names...); err != nil {
		return err
	}
	var batch []service.JobRequest
	for i, name := range names {
		batch = append(batch, service.JobRequest{Scenario: name, Trials: 120, Seed: int64(4000 + i)})
	}
	states, err := client.Submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for i, st := range states {
		if _, err := awaitDirect(ctx, client, st.ID, batch[i]); err != nil {
			return err
		}
	}
	attack := names[len(names)-1]
	certs, err := client.SubmitCerts(ctx, []service.CertRequest{{Scenario: attack, Trials: 600, Seed: 9}})
	if err != nil {
		return fmt.Errorf("submit cert: %w", err)
	}
	cert, _, err := awaitCert(ctx, client, certs[0].ID, nil)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: dsl: %d generated scenarios served byte-identically, %s certified %s\n",
		len(names), attack, cert.Verdict)
	return nil
}

func profilePhase(ctx context.Context, cfg config) error {
	n, err := startNode(ctx, cfg.fleserve, "-parallel", "2", "-pprof")
	if err != nil {
		return err
	}
	defer n.stop()
	// Enough distinct jobs to keep every engine slot busy well past the
	// profile window; distinct seeds keep them out of the cache.
	client := n.client()
	for i := range 8 {
		states, err := client.Submit(ctx, []service.JobRequest{{Scenario: "ring/a-lead/fifo", N: 64, Trials: 1_000_000, Seed: int64(5000 + i)}})
		if err != nil {
			return fmt.Errorf("submit load: %w", err)
		}
		// Once the window closes the load has served its purpose: canceling
		// it lets the daemon shut down promptly, and stop ends it regardless.
		defer client.Cancel(ctx, states[0].ID)
	}
	url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", n.url(), cfg.profileSeconds)
	resp, err := (&http.Client{Timeout: timeout}).Get(url)
	if err != nil {
		return fmt.Errorf("capture %s: %w", url, err)
	}
	defer resp.Body.Close()
	profile, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return fmt.Errorf("read profile: %w", err)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("capture %s: %s: %.512s", url, resp.Status, profile)
	// pprof profiles are gzip-framed protobufs; an HTML error page must
	// not be written as one.
	case len(profile) < 2 || profile[0] != 0x1f || profile[1] != 0x8b:
		return fmt.Errorf("response is not a gzip pprof profile (%d bytes)", len(profile))
	}
	if err := os.MkdirAll(filepath.Dir(cfg.profileOut), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.profileOut, profile, 0o644); err != nil {
		return err
	}
	fmt.Printf("smoke: profile: wrote %d-second CPU profile (%d bytes) to %s; inspect with go tool pprof %s\n",
		cfg.profileSeconds, len(profile), cfg.profileOut, cfg.profileOut)
	return nil
}
