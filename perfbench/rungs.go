package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/committee"
	"repro/internal/engine"
	"repro/internal/popproto"
	"repro/internal/protocols/alead"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Rung sizes: each rung times one layer in isolation, after a warm-up.
const (
	rungTrialsN64       = 2000
	rungTrialsN1024     = 8
	rungTrialsCommittee = 6
	rungTrialsPopproto  = 4000
	rungChunks          = 4096
	rungSummarize       = 2000
)

// runRungs times the layers below the scenario registry one at a time and
// returns their per-layer metrics.
func runRungs(ctx context.Context, cfg runConfig, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	// Kernel: ring.RunArena of honest A-LEADuni on one recycled arena.
	arena := sim.NewArena()
	kernel := func(n, trials int, tag uint64) (nsPerTrial, nsPerMsg, allocs float64, err error) {
		spec := ring.Spec{N: n, Protocol: alead.New()}
		if _, err = ring.RunArena(spec, arena); err != nil { // warm the arena
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var msgs int64
		t0 := time.Now()
		for t := 0; t < trials; t++ {
			spec.Seed = derive(cfg.seed, tag, uint64(t))
			s := tr.start(fmt.Sprintf("sim.run_arena_n%d", n), 0)
			res, rerr := ring.RunArena(spec, arena)
			tr.end(s)
			if rerr != nil {
				return 0, 0, 0, rerr
			}
			if res.Failed {
				return 0, 0, 0, fmt.Errorf("n=%d trial %d failed", n, t)
			}
			msgs += int64(res.Delivered)
		}
		ns := float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&after)
		return ns / float64(trials), ns / float64(msgs), float64(after.Mallocs-before.Mallocs) / float64(trials), nil
	}
	ns64, _, allocs, err := kernel(64, rungTrialsN64, 0x64)
	if err != nil {
		return nil, fmt.Errorf("sim rung: %w", err)
	}
	ns1024, perMsg, _, err := kernel(1024, rungTrialsN1024, 0x1024)
	if err != nil {
		return nil, fmt.Errorf("sim rung: %w", err)
	}
	out["sim.ns_per_trial_n64"], out["sim.allocs_per_trial"] = ns64, allocs
	out["sim.ns_per_trial_n1024"], out["sim.ns_per_msg"] = ns1024, perMsg

	// Committee: Runner.Run at n = 10⁴ (√n groups plus the delegate ring).
	e, err := committee.New(10000, committee.InnerALead)
	if err != nil {
		return nil, err
	}
	cr := e.Runner()
	if _, err := cr.Run(derive(cfg.seed, 0xc0)); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for t := 0; t < rungTrialsCommittee; t++ {
		s := tr.start("committee.run", 0)
		res, err := cr.Run(derive(cfg.seed, 0xc0, uint64(t+1)))
		tr.end(s)
		if err != nil || res.Failed {
			return nil, fmt.Errorf("committee rung trial %d: failed=%v err=%v", t, res.Failed, err)
		}
	}
	out["committee.ms_per_trial"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / rungTrialsCommittee

	// Population protocol: Runner.Run at the catalog's n = 16.
	pr, err := popproto.NewRunner(popproto.Config{N: 16})
	if err != nil {
		return nil, err
	}
	pr.Run(derive(cfg.seed, 0x99))
	t0 = time.Now()
	for t := 0; t < rungTrialsPopproto; t++ {
		s := tr.start("popproto.run", 0)
		res := pr.Run(derive(cfg.seed, 0x99, uint64(t+1)))
		tr.end(s)
		if res.Failed {
			return nil, fmt.Errorf("popproto rung trial %d failed", t)
		}
	}
	out["popproto.us_per_trial"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / rungTrialsPopproto

	// Engine: RunBatch of a no-op ChunkFunc on every worker, on the
	// sharded path and, with Observe set, on the chunk-ordered frontier.
	noop := engine.ChunkFunc(func(int, int, *sim.Arena, func(sim.Result)) (int, error) { return 0, nil })
	sink := engine.Sink[*int]{New: func() *int { return new(int) }, Add: func(*int, sim.Result) {}, Merge: func(*int, *int) {}}
	chunkNS := func(name string, observe func(*int, int)) (float64, error) {
		opts := engine.Options[*int]{Workers: cfg.workers, Observe: observe}
		trials := rungChunks * engine.DefaultChunk
		if _, err := engine.RunBatch(ctx, trials, noop, sink, opts); err != nil {
			return 0, err
		}
		s := tr.start(name, 0)
		t0 := time.Now()
		_, err := engine.RunBatch(ctx, trials, noop, sink, opts)
		ns := float64(time.Since(t0).Nanoseconds())
		tr.end(s)
		// Worker-nanoseconds per chunk: comparable with per-trial kernel
		// cost, which is also spent on one worker.
		return ns * float64(cfg.workers) / rungChunks, err
	}
	if out["engine.chunk_overhead_ns"], err = chunkNS("engine.run_batch", nil); err != nil {
		return nil, err
	}
	if out["engine.frontier_chunk_overhead_ns"], err = chunkNS("engine.run_batch_observe", func(*int, int) {}); err != nil {
		return nil, err
	}

	// Scenario: OutcomeFromDist plus json.Marshal of the serve workload's
	// fresh-job shape.
	sc, ok := scenario.Find(serveScenario)
	if !ok {
		return nil, fmt.Errorf("no scenario %s", serveScenario)
	}
	o := scenario.Opts{N: serveN, Workers: cfg.workers}
	base, err := sc.RunOpts(ctx, derive(cfg.seed, 0x5c), o)
	if err != nil {
		return nil, err
	}
	var size int
	samples := make([]float64, 0, rungSummarize)
	for i := 0; i < rungSummarize; i++ {
		s := tr.start("scenario.summarize", 0)
		t0 := time.Now()
		b, err := json.Marshal(sc.OutcomeFromDist(base.Dist, o))
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		size = len(b)
	}
	out["scenario.summarize_us"] = median(samples)
	out["scenario.result_bytes"] = float64(size)
	return out, nil
}
