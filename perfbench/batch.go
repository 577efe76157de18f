package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// batchCase is one scenario batch of a batch round.
type batchCase struct {
	name      string
	n, trials int // 0 keeps the scenario default
}

// batchCases run in every round, in order. Trial counts give each batch at
// least two 32-trial engine chunks, so both workers of a 2-CPU machine
// take part; the two ~1M-message cases dominate the round.
var batchCases = []batchCase{
	{"ring/a-lead/fifo", 64, 512},
	{"ring/a-lead/fifo", 1024, 64},
	{"ring/phase-lead/attack=phase-rushing", 0, 128},
	{"committee/a-lead/fifo", 10000, 64},
	{"popproto/ss-ring-le/pairwise", 0, 1024},
}

func (c batchCase) String() string { return fmt.Sprintf("%s n=%d", c.name, c.n) }

// chiAlpha is the significance level of the uniformity sanity check: tiny,
// so a correct kernel essentially never trips it.
const chiAlpha = 1e-6

// batchBench runs whole trial batches in-process through Scenario.RunOpts
// on the sharded engine path (no Progress, no Stop).
type batchBench struct {
	cfg runConfig
	scs []scenario.Scenario
	// last holds the final round's outcomes and timings, for the traced
	// partition check.
	last []batchOp
}

type batchOp struct {
	seed int64
	out  *scenario.Outcome
	wall time.Duration
}

func (b *batchBench) opts(c batchCase) scenario.Opts {
	return scenario.Opts{N: c.n, Trials: c.trials, Workers: b.cfg.workers}
}

// setUp resolves the scenarios and warms each one with a one-chunk batch.
func (b *batchBench) setUp(ctx context.Context) error {
	b.scs = b.scs[:0]
	for i, c := range batchCases {
		sc, ok := scenario.Find(c.name)
		if !ok {
			return fmt.Errorf("no scenario %s", c.name)
		}
		b.scs = append(b.scs, sc)
		o := b.opts(c)
		o.Trials = 1
		if _, err := sc.RunOpts(ctx, derive(b.cfg.seed, 0xba7c, uint64(i)), o); err != nil {
			return err
		}
	}
	return nil
}

func (b *batchBench) close() {}

func (b *batchBench) run(ctx context.Context, d time.Duration, tr *tracer) *result {
	res := newResult("round")
	var msgs int64
	b.last = make([]batchOp, len(batchCases))
	start := time.Now()
	for k := 1; time.Since(start) < d; k++ {
		op := tr.start("op.round", 0)
		t0 := time.Now()
		var trials int64
		for i, c := range batchCases {
			seed := derive(b.cfg.seed, 0xba7c, uint64(k), uint64(i))
			s := tr.start("scenario.run_opts", op)
			c0 := time.Now()
			out, err := b.scs[i].RunOpts(ctx, seed, b.opts(c))
			wall := time.Since(c0)
			tr.end(s)
			res.attempted++
			if err != nil {
				res.fail("%s: %v", c, err)
				continue
			}
			if err := checkBatch(b.scs[i], c, out); err != nil {
				res.fail("%s seed %d: %v", c, seed, err)
				continue
			}
			trials += int64(out.Trials)
			msgs += int64(out.Messages)
			b.last[i] = batchOp{seed: seed, out: out, wall: wall}
		}
		dur := time.Since(t0)
		tr.end(op)
		res.trials += trials
		res.rounds = append(res.rounds, round{dur: dur, ops: len(batchCases), trials: trials})
		res.lat["round"] = append(res.lat["round"], float64(dur.Nanoseconds())/1e6)
	}
	res.elapsed = time.Since(start)
	res.named["trials_per_s"] = res.trialsRate()
	res.named["msgs_per_s"] = float64(msgs) / res.elapsed.Seconds()
	if tr != nil {
		b.partition(ctx, res, tr)
	}
	return res
}

// checkBatch verifies one outcome: the requested trial count; for honest
// uniform scenarios no failures and a binned χ² uniformity test passing at
// chiAlpha; for attacks, the coalition forcing its target.
func checkBatch(sc scenario.Scenario, c batchCase, out *scenario.Outcome) error {
	want := c.trials
	if want == 0 {
		want = sc.Trials
	}
	if out.Trials != want {
		return fmt.Errorf("ran %d trials, want %d", out.Trials, want)
	}
	if out.Failures != 0 {
		return fmt.Errorf("%d failed trials", out.Failures)
	}
	if sc.Attack != "" {
		if out.TargetRate < 0.95 {
			return fmt.Errorf("attack forced target %d in %.3f of trials", out.Target, out.TargetRate)
		}
		return nil
	}
	if !sc.Uniform {
		return nil
	}
	_, p, err := stats.ChiSquareUniform(binCounts(out.Counts[1:], out.Trials))
	if err != nil {
		return err
	}
	if p < chiAlpha {
		return fmt.Errorf("leader counts fail the uniformity check (p = %.2g)", p)
	}
	return nil
}

// binCounts folds per-leader counts into the most equal-width bins (a
// divisor of the leader count) that keep about five expected trials per bin,
// so the χ² approximation holds even when trials ≪ n.
func binCounts(counts []int, trials int) []int {
	n := len(counts)
	bins := 1
	for k := 2; k <= n && k*5 <= trials; k++ {
		if n%k == 0 {
			bins = k
		}
	}
	if bins < 2 {
		bins = min(2, n)
	}
	out := make([]int, bins)
	for j, c := range counts {
		out[j*bins/n] += c
	}
	return out
}

// partition is the batch loop's traced rung. It re-runs the last round's
// batches as single-worker RunShard halves: the merged shards must marshal
// byte-identically to RunOpts, and their summed time over RunOpts wall time
// × workers is the engine's parallel efficiency.
func (b *batchBench) partition(ctx context.Context, res *result, tr *tracer) {
	var shardNS, optsNS float64
	for i, c := range batchCases {
		last := b.last[i]
		if last.out == nil {
			continue
		}
		o := b.opts(c)
		o.Workers = 1
		n, trials := b.scs[i].Resolve(o)
		merged := ring.NewDistribution(n)
		ok := true
		for _, r := range [][2]int{{0, trials / 2}, {trials / 2, trials}} {
			s := tr.start("scenario.run_shard", 0)
			t0 := time.Now()
			d, err := b.scs[i].RunShard(ctx, last.seed, o, r[0], r[1])
			shardNS += float64(time.Since(t0).Nanoseconds())
			tr.end(s)
			if err != nil {
				res.check(false, "%s shard %v: %v", c, r, err)
				ok = false
				break
			}
			if err := merged.Merge(d); err != nil {
				res.check(false, "%s shard merge: %v", c, err)
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		optsNS += float64(last.wall.Nanoseconds()) * float64(b.cfg.workers)
		whole, err1 := json.Marshal(last.out)
		parts, err2 := json.Marshal(b.scs[i].OutcomeFromDist(merged, b.opts(c)))
		res.check(err1 == nil && err2 == nil && bytes.Equal(whole, parts),
			"%s seed %d: merged RunShard partition differs from RunOpts", c, last.seed)
	}
	res.layers["engine.parallel_eff"] = shardNS / optsNS
}
