// Command fleload is a load generator for a fleserve daemon or fleet. It
// drives a configurable mix of cached replays, fresh simulation jobs,
// certification sweeps, and committee-class elections at a target request
// rate, then reports throughput, cache hit rate, and latency quantiles as
// JSON.
//
// Usage:
//
//	fleload -target URL [-requests N] [-rate R] [-mix C:F:Z:M]
//	        [-scenario S] [-n N] [-trials T] [-seed S] [-out FILE]
//
// The report's throughput_rps counts successful requests only: requests
// that errored (tracked separately in errors) contribute neither latency
// samples nor throughput, so a degrading daemon shows up as throughput
// falling away from the request rate rather than being papered over.
//
// The mix is weights, not a schedule: "8:1:1:2" means out of every twelve
// requests eight replay one pre-warmed identity (cached), one submits a
// never-seen seed (fresh engine work), one runs a small certification
// sweep, and two run a committee-sharded election batch (the fleet's
// heavyweight class: a fresh seed each, against -committee-scenario at
// -committee-n). Missing trailing components are zero, so the pre-existing
// three-part mixes keep their meaning. The interleave is deterministic in
// the request index, so two runs against equal daemons issue the identical
// request sequence.
//
// Latency is time to a terminal job state: for cached requests that is the
// submit round trip (the daemon replays from cache inline); for fresh and
// certify requests it includes the engine or fleet computation. The report
// ends with the daemon's own /statz counters so cache and fleet behaviour
// under load land in the same artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fleload:", err)
		os.Exit(1)
	}
}

// class indexes the request mix.
const (
	classCached = iota
	classFresh
	classCertify
	classCommittee
	numClasses
)

var classNames = [numClasses]string{"cached", "fresh", "certify", "committee"}

// Report is the JSON artifact fleload emits.
type Report struct {
	Target     string  `json:"target"`
	Requests   int     `json:"requests"`
	RateTarget float64 `json:"rate_target_rps"`
	Mix        string  `json:"mix"`
	Scenario   string  `json:"scenario"`
	N          int     `json:"n"`
	Trials     int     `json:"trials"`

	ElapsedMillis float64 `json:"elapsed_ms"`
	// ThroughputRPS is successful requests per second of wall time.
	// Errored requests are excluded — they are counted in Errors instead —
	// so Requests/elapsed and ThroughputRPS diverge exactly when the
	// target misbehaves.
	ThroughputRPS  float64        `json:"throughput_rps"`
	Errors         int            `json:"errors"`
	PerClassCounts map[string]int `json:"per_class_counts"`

	// Latency quantiles in milliseconds, overall and per class.
	Latency map[string]Quantiles `json:"latency_ms"`

	// Stats is the daemon's /statz snapshot after the run.
	Stats service.Stats `json:"stats"`
}

// Quantiles summarizes one latency population.
type Quantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("fleload", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		target   = fs.String("target", "", "daemon URL to load (required), e.g. http://127.0.0.1:8080")
		requests = fs.Int("requests", 100, "total requests to issue")
		rate     = fs.Float64("rate", 25, "target request rate per second")
		mix      = fs.String("mix", "8:1:1", "cached:fresh:certify:committee request weights")
		scen     = fs.String("scenario", "ring/basic-lead/fifo", "scenario for cached and fresh jobs")
		n        = fs.Int("n", 8, "network size")
		commScen = fs.String("committee-scenario", "committee/basic-lead/fifo", "scenario for committee-class jobs")
		commN    = fs.Int("committee-n", 1024, "network size for committee-class jobs")
		trials   = fs.Int("trials", 2000, "trials per job")
		seed     = fs.Int64("seed", 1, "base seed; fresh jobs use seed+1, seed+2, ...")
		outPath  = fs.String("out", "", "write the JSON report here instead of stdout")
		timeout  = fs.Duration("timeout", 5*time.Minute, "overall run deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("-target is required")
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return err
	}
	if *requests <= 0 || *rate <= 0 {
		return fmt.Errorf("-requests and -rate must be positive")
	}

	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	client := service.NewClient(*target)
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("target not healthy: %w", err)
	}

	cachedReq := service.JobRequest{Scenario: *scen, N: *n, Trials: *trials, Seed: *seed}
	certReq := service.CertRequest{Scenario: *scen, N: *n, Trials: *trials, MaxK: 1, Seed: *seed}
	committeeReq := service.JobRequest{Scenario: *commScen, N: *commN, Trials: *trials, Seed: *seed}

	// Pre-warm the cached identity so classCached requests measure replay,
	// not the first computation. Untimed by design.
	if weights[classCached] > 0 {
		if err := submitAndWait(ctx, client, cachedReq); err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
	}

	var (
		mu        sync.Mutex
		latencies [numClasses][]float64
		errCount  int
	)
	record := func(class int, d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errCount++
			return
		}
		latencies[class] = append(latencies[class], float64(d.Nanoseconds())/1e6)
	}

	issue := func(class, i int) {
		start := time.Now()
		var err error
		switch class {
		case classCached:
			err = submitAndWait(ctx, client, cachedReq)
		case classFresh:
			fresh := cachedReq
			fresh.Seed = *seed + 1 + int64(i)
			err = submitAndWait(ctx, client, fresh)
		case classCertify:
			var states []service.CertState
			states, err = client.SubmitCerts(ctx, []service.CertRequest{certReq})
			if err == nil && !states[0].Status.Terminal() {
				_, err = client.WaitCert(ctx, states[0].ID)
			}
		case classCommittee:
			// Fresh seeds so every committee request is real hierarchical
			// simulation work, never a cache replay.
			committee := committeeReq
			committee.Seed = *seed + 1 + int64(i)
			err = submitAndWait(ctx, client, committee)
		}
		record(class, time.Since(start), err)
	}

	// Token bucket: one request per tick. The ticker drops ticks when the
	// issuing loop falls behind, so a saturated daemon degrades the achieved
	// rate instead of building an unbounded goroutine backlog on top of the
	// per-request goroutines below.
	interval := time.Duration(float64(time.Second) / *rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < *requests; i++ {
		select {
		case <-ctx.Done():
			return fmt.Errorf("deadline before request %d: %w", i, context.Cause(ctx))
		case <-ticker.C:
		}
		class := pickClass(i, weights)
		wg.Add(1)
		go func(class, i int) {
			defer wg.Done()
			issue(class, i)
		}(class, i)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	stats, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("final stats: %w", err)
	}

	rep := Report{
		Target:         *target,
		Requests:       *requests,
		RateTarget:     *rate,
		Mix:            *mix,
		Scenario:       *scen,
		N:              *n,
		Trials:         *trials,
		ElapsedMillis:  float64(elapsed.Nanoseconds()) / 1e6,
		ThroughputRPS:  float64(*requests-errCount) / elapsed.Seconds(),
		Errors:         errCount,
		PerClassCounts: map[string]int{},
		Latency:        map[string]Quantiles{},
		Stats:          stats,
	}
	// quantiles handles empty populations itself, so unexercised classes
	// (and an all-error run's overall row) report Count 0 instead of being
	// silently absent.
	var overall []float64
	for c := 0; c < numClasses; c++ {
		rep.PerClassCounts[classNames[c]] = len(latencies[c])
		rep.Latency[classNames[c]] = quantiles(latencies[c])
		overall = append(overall, latencies[c]...)
	}
	rep.Latency["overall"] = quantiles(overall)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, b, 0o644)
	}
	_, err = out.Write(b)
	return err
}

// submitAndWait drives one job to a terminal state and surfaces non-done
// endings as errors. A job the submit answers already terminal (a cache
// replay) opens no watch stream: that second round trip is not the
// daemon's latency.
func submitAndWait(ctx context.Context, client *service.Client, req service.JobRequest) error {
	states, err := client.Submit(ctx, []service.JobRequest{req})
	if err != nil {
		return err
	}
	final := states[0]
	if !final.Status.Terminal() {
		if final, err = client.Wait(ctx, final.ID); err != nil {
			return err
		}
	}
	if final.Status != service.StatusDone {
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.Status, final.Error)
	}
	return nil
}

// parseMix parses "C:F:Z:M" weights; missing trailing components are zero.
func parseMix(s string) ([numClasses]int, error) {
	var w [numClasses]int
	parts := strings.Split(s, ":")
	if len(parts) == 0 || len(parts) > numClasses {
		return w, fmt.Errorf("mix %q: want cached:fresh:certify:committee", s)
	}
	total := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return w, fmt.Errorf("mix %q: component %d is not a non-negative integer", s, i)
		}
		w[i] = v
		total += v
	}
	if total == 0 {
		return w, fmt.Errorf("mix %q: all weights are zero", s)
	}
	return w, nil
}

// pickClass maps a request index onto the mix deterministically: the
// weights tile the index space in blocks of sum(weights), so any prefix of
// requests carries (close to) the configured proportions.
func pickClass(i int, w [numClasses]int) int {
	total := 0
	for _, v := range w {
		total += v
	}
	pos := i % total
	for c, v := range w {
		if pos < v {
			return c
		}
		pos -= v
	}
	// pos < total by construction: reaching here means the tiling invariant
	// broke, and returning any class would silently misattribute latency
	// samples.
	panic(fmt.Sprintf("fleload: request %d fell through the mix tiling (weights %v)", i, w))
}

// quantiles computes latency quantiles by sorted rank (nearest-rank
// method): pNN is the smallest sample ≥ NN% of the population. An empty
// population yields the zero Quantiles (Count 0), so callers need no
// emptiness guard of their own.
func quantiles(samples []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{Count: 0}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		idx := int(q*float64(len(s))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	return Quantiles{
		Count: len(s),
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
		Max:   s[len(s)-1],
	}
}
