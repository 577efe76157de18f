// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every output it produces, and prints its metrics as
// the last line of standard output:
//
//	perfbench --workload <batch|certify|serve|fleet> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the line carries the end-to-end metrics of an untraced
// run. With --trace 1 the run records spans around every call the
// benchmark makes into a layer and reports per-layer metrics instead; see
// README.md for the metric definitions and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workers  int // engine workers and client count: runtime.NumCPU()
}

// result is what one workload run measured.
type result struct {
	elapsed   time.Duration        // the timed loop's wall time
	attempted int                  // operations issued in the timed loop, plus checks outside it
	failed    int                  // operations that failed or returned wrong output
	trials    int64                // engine trials behind the completed operations
	rounds    []round              // steady-state units the throughput medians run over
	headline  string               // latency class reported as p50_ms
	lat       map[string][]float64 // latency samples in ms, per class
	named     map[string]float64   // the workload's own end-to-end metrics
	layers    map[string]float64   // per-layer metrics (traced runs only)
	notes     []string             // the first failure descriptions
}

func newResult(headline string) *result {
	return &result{headline: headline, lat: map[string][]float64{},
		named: map[string]float64{}, layers: map[string]float64{}}
}

// fail records one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one verification done outside the timed loop.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// round is one unit of the timed loop: a fixed piece of work (a batch or
// certify round, a fleet job) or, for serve, a fixed time window.
type round struct {
	dur    time.Duration
	ops    int
	trials int64
}

// opsRate and trialsRate are medians of the per-round rates, so a
// transient slowdown of the machine moves them less than a whole-loop
// average would.
func (r *result) opsRate() float64 {
	return roundRate(r.rounds, func(x round) float64 { return float64(x.ops) })
}

func (r *result) trialsRate() float64 {
	return roundRate(r.rounds, func(x round) float64 { return float64(x.trials) })
}

func roundRate(rounds []round, work func(round) float64) float64 {
	rates := make([]float64, len(rounds))
	for i, x := range rounds {
		rates[i] = work(x) / x.dur.Seconds()
	}
	return median(rates)
}

// bench is one workload.
type bench interface {
	// setUp builds everything the timed loop needs; close releases it.
	setUp(ctx context.Context) error
	close()
	// run drives operations for d, then checks outputs outside the timed
	// window. With a non-nil tracer it records spans and, after the
	// loop, measures the workload's per-layer metrics into result.layers.
	run(ctx context.Context, d time.Duration, tr *tracer) *result
}

var workloads = []string{"batch", "certify", "serve", "fleet"}

func newBench(name string, cfg runConfig) bench {
	switch name {
	case "batch":
		return &batchBench{cfg: cfg}
	case "certify":
		return &certifyBench{cfg: cfg}
	case "serve":
		return &serveBench{cfg: cfg}
	case "fleet":
		return &fleetBench{cfg: cfg}
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the machine-readable result: the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := runConfig{workers: runtime.NumCPU()}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: batch, certify, serve or fleet")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "timed loop length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if newBench(cfg.workload, cfg) == nil {
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1")
	}
	cfg.trace = traceFlag == 1
	if _, err := os.Stat("CERTIFICATES.md"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}

	var (
		res    *result
		report map[string]any
		err    error
	)
	if cfg.trace {
		res, report, err = tracedRun(ctx, cfg)
	} else {
		res, report, err = untracedRun(ctx, cfg)
	}
	if err != nil {
		return err
	}
	// JSON has no NaN or Inf: an empty population or a failed operation
	// reads -1, here and in the last line.
	for _, key := range []string{"end_to_end", "named", "per_layer"} {
		if m, ok := report[key].(map[string]float64); ok {
			for k, v := range m {
				m[k] = finite(v)
			}
		}
	}
	report["stamp"] = newStamp(cfg)
	report["attempted"], report["failed"] = res.attempted, res.failed
	report["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	if len(res.notes) > 0 {
		report["failures"] = res.notes
	}
	b, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)

	final := line{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted,
		Failed: res.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for name, unit := range layerUnits {
			v, ok := res.layers[name]
			if !ok {
				return fmt.Errorf("traced run did not measure %s", name)
			}
			final.Metrics[name] = metric{Value: v, Unit: unit}
		}
	} else {
		for name, v := range report["end_to_end"].(map[string]float64) {
			final.Metrics[name] = metric{Value: v, Unit: e2eUnits[name]}
		}
	}
	b, err = json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// setUps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed loop.
const setUps = 3

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"trials_per_s": "1/s",
	"ops_per_s":    "1/s",
	"p50_ms":       "ms",
	"max_rss_mb":   "MiB",
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, cfg runConfig) (*result, map[string]any, error) {
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setUps; i++ {
		if b != nil {
			b.close()
		}
		b = newBench(cfg.workload, cfg)
		t0 := time.Now()
		if err := b.setUp(ctx); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := b.run(ctx, time.Duration(cfg.seconds)*time.Second, nil)
	b.close()

	e2e := map[string]float64{
		"setup_s":      median(setups),
		"trials_per_s": res.trialsRate(),
		"ops_per_s":    res.opsRate(),
		"p50_ms":       summarize(res.lat[res.headline]).P50,
		"max_rss_mb":   maxRSSMB(),
	}
	lat := map[string]timing{}
	for class, xs := range res.lat {
		lat[class] = summarize(xs)
	}
	report := map[string]any{
		"end_to_end": e2e,
		"named":      res.named,
		"latency_ms": lat,
		"setup_s":    setups,
		"elapsed_s":  res.elapsed.Seconds(),
		"rounds":     len(res.rounds),
		"trials":     res.trials,
	}
	return res, report, nil
}

// shortSlice is how long a traced run drives each of the other workloads,
// so every traced run reports every layer.
const shortSlice = 2 * time.Second

// tracedRun measures the per-layer metrics. The named workload runs
// untraced for half the time and traced for the other half (their rate
// difference is the tracing overhead, and the traced half's spans give
// residual_frac). Each other workload then runs traced for shortSlice, and
// the kernel, engine and summarize rungs run last; a metric measured by
// the named workload's own loop wins over the same metric from another.
func tracedRun(ctx context.Context, cfg runConfig) (*result, map[string]any, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	own := newBench(cfg.workload, cfg)
	if err := own.setUp(ctx); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	plain := own.run(ctx, half, nil)
	tr := newTracer()
	res := own.run(ctx, half, tr)
	own.close()
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.notes = append(res.notes, plain.notes...)
	res.layers["residual_frac"] = residualFrac(tr.snapshot())
	res.layers["trace.overhead_frac"] = 1 - res.opsRate()/plain.opsRate()

	traces := map[string]*tracer{cfg.workload: tr}
	for _, name := range workloads {
		if name == cfg.workload {
			continue
		}
		b := newBench(name, cfg)
		if err := b.setUp(ctx); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		traces[name] = newTracer()
		other := b.run(ctx, shortSlice, traces[name])
		b.close()
		res.attempted += other.attempted
		res.failed += other.failed
		res.notes = append(res.notes, other.notes...)
		for k, v := range other.layers {
			if _, ok := res.layers[k]; !ok {
				res.layers[k] = v
			}
		}
	}
	traces["rungs"] = newTracer()
	rungs, err := runRungs(ctx, cfg, traces["rungs"])
	if err != nil {
		return nil, nil, err
	}
	for k, v := range rungs {
		res.layers[k] = v
	}
	// The HTTP overhead needs both the idle HTTP round trip and the
	// in-process submit, which come from the serve loop.
	res.layers["service.http_overhead_ms"] = res.layers["service.http_hit_ms"] - res.layers["service.submit_hit_us"]/1000

	spanStats := map[string]map[string]layerStat{}
	files := []string{}
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spans := traces[name].snapshot()
		spanStats[name] = layerStats(spans)
		path, err := writeSpans(".bench_build/trace", fmt.Sprintf("%s-%d-%s.jsonl", cfg.workload, cfg.seed, name), spans)
		if err != nil {
			return nil, nil, fmt.Errorf("write trace: %w", err)
		}
		files = append(files, path)
	}
	report := map[string]any{
		"per_layer":          res.layers,
		"named":              res.named,
		"span_stats":         spanStats,
		"trace_files":        files,
		"untraced_ops_per_s": plain.opsRate(),
		"traced_ops_per_s":   res.opsRate(),
	}
	return res, report, nil
}

// layerUnits lists every per-layer metric a traced run reports, with its
// unit; README.md maps each to the end-to-end metric it should move.
var layerUnits = map[string]string{
	"sim.ns_per_msg":                    "ns",
	"sim.ns_per_trial_n64":              "ns",
	"sim.ns_per_trial_n1024":            "ns",
	"sim.allocs_per_trial":              "count",
	"committee.ms_per_trial":            "ms",
	"popproto.us_per_trial":             "us",
	"engine.chunk_overhead_ns":          "ns",
	"engine.frontier_chunk_overhead_ns": "ns",
	"engine.parallel_eff":               "ratio",
	"scenario.summarize_us":             "us",
	"scenario.result_bytes":             "bytes",
	"equilibrium.candidates":            "count",
	"equilibrium.candidate_ms_p50":      "ms",
	"equilibrium.sweep_overhead_frac":   "ratio",
	"service.submit_hit_us":             "us",
	"service.http_hit_ms":               "ms",
	"service.http_overhead_ms":          "ms",
	"service.queue_wait_ms":             "ms",
	"service.run_ms":                    "ms",
	"service.cache_hit_rate":            "ratio",
	"service.dedup_hits":                "count",
	"fleet.claim_rtt_ms":                "ms",
	"fleet.heartbeat_rtt_ms":            "ms",
	"fleet.result_rtt_ms":               "ms",
	"fleet.remote_chunk_frac":           "ratio",
	"fleet.reissued":                    "count",
	"fleet.merge_wait_ms":               "ms",
	"residual_frac":                     "ratio",
	"trace.overhead_frac":               "ratio",
}
