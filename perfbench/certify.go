package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// certifyScenarios are certified in every round, at their registered
// defaults with the certifier's default early stopping. They cover both
// verdicts.
var certifyScenarios = []string{
	"ring/a-lead/fifo",
	"ring/a-lead/attack=rushing-equal",
	"ring/phase-lead/attack=phase-rushing",
	"popproto/ss-ring-le/pairwise",
	"committee/basic-lead/attack=delegate-rush",
}

// certificatesFile holds the committed verdict of every catalog scenario.
const certificatesFile = "CERTIFICATES.md"

// certifyBench runs equilibrium.Certify in-process.
type certifyBench struct {
	cfg  runConfig
	scs  []scenario.Scenario
	want map[string]equilibrium.Verdict
	// traced holds the traced loop's certificates, for the sweep-overhead
	// replay.
	traced []certOp
}

type certOp struct {
	sc   scenario.Scenario
	seed int64
	cert *equilibrium.Certificate
	wall time.Duration
}

// readVerdicts parses the verdict column of CERTIFICATES.md.
func readVerdicts(path string) (map[string]equilibrium.Verdict, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]equilibrium.Verdict{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cells := strings.Split(sc.Text(), "|")
		// | scenario | n | cands | trials | baseline | max gain | gain UB | verdict | …
		if len(cells) < 9 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		out[name] = equilibrium.Verdict(strings.TrimSpace(cells[8]))
	}
	return out, sc.Err()
}

// setUp reads the committed verdicts, resolves the scenarios and warms
// each with a one-chunk batch.
func (b *certifyBench) setUp(ctx context.Context) error {
	want, err := readVerdicts(certificatesFile)
	if err != nil {
		return err
	}
	b.want, b.scs = want, b.scs[:0]
	for i, name := range certifyScenarios {
		sc, ok := scenario.Find(name)
		if !ok {
			return fmt.Errorf("no scenario %s", name)
		}
		if _, ok := want[name]; !ok {
			return fmt.Errorf("%s has no verdict in %s", name, certificatesFile)
		}
		b.scs = append(b.scs, sc)
		o := scenario.Opts{Trials: 32, Workers: b.cfg.workers}
		if _, err := sc.RunOpts(ctx, derive(b.cfg.seed, 0xce27, uint64(i)), o); err != nil {
			return err
		}
	}
	return nil
}

func (b *certifyBench) close() {}

func (b *certifyBench) run(ctx context.Context, d time.Duration, tr *tracer) *result {
	res := newResult("round")
	var (
		gaps     []float64
		certs    int
		cands    int
		verdicts = map[string]int{}
	)
	b.traced = nil
	start := time.Now()
	for k := 1; time.Since(start) < d; k++ {
		op := tr.start("op.round", 0)
		t0 := time.Now()
		var trials int64
		for i, sc := range b.scs {
			seed := derive(b.cfg.seed, 0xce27, uint64(k), uint64(i))
			last := time.Now()
			opts := equilibrium.Options{Workers: b.cfg.workers}
			if tr != nil {
				opts.Progress = func(equilibrium.Progress) {
					now := time.Now()
					gaps = append(gaps, float64(now.Sub(last).Nanoseconds())/1e6)
					last = now
				}
			}
			s := tr.start("equilibrium.certify", op)
			c0 := time.Now()
			cert, err := equilibrium.Certify(ctx, sc, seed, opts)
			wall := time.Since(c0)
			tr.end(s)
			res.attempted++
			switch {
			case err != nil:
				res.fail("certify %s: %v", sc.Name, err)
				continue
			case cert.Verdict != b.want[sc.Name]:
				res.fail("certify %s seed %d: verdict %s, %s says %s",
					sc.Name, seed, cert.Verdict, certificatesFile, b.want[sc.Name])
				continue
			}
			certs++
			cands += len(cert.Candidates)
			verdicts[string(cert.Verdict)]++
			for _, c := range cert.Candidates {
				trials += int64(c.Trials)
			}
			if tr != nil {
				b.traced = append(b.traced, certOp{sc: sc, seed: seed, cert: cert, wall: wall})
			}
		}
		dur := time.Since(t0)
		tr.end(op)
		res.trials += trials
		res.rounds = append(res.rounds, round{dur: dur, ops: len(b.scs), trials: trials})
		res.lat["round"] = append(res.lat["round"], float64(dur.Nanoseconds())/1e6)
	}
	res.elapsed = time.Since(start)
	res.named["trials_per_s"] = res.trialsRate()
	res.named["certs_per_min"] = 60 * res.opsRate()
	res.named["trials_per_verdict"] = float64(res.trials) / float64(max(certs, 1))
	for v, k := range verdicts {
		res.named["verdicts_"+v] = float64(k)
	}
	if tr != nil {
		res.layers["equilibrium.candidates"] = float64(cands) / float64(max(certs, 1))
		res.layers["equilibrium.candidate_ms_p50"] = median(gaps)
		res.layers["equilibrium.sweep_overhead_frac"] = b.sweepOverhead(ctx, res, tr)
	}
	return res
}

// sweepOverhead replays every feasible candidate of the traced loop as a plain RunDeviation batch of the trials it actually ran (no
// stop rule, same workers) and returns the share of the certification
// wall time those batches do not explain: stop-rule checks, the
// chunk-ordered frontier, chunks discarded past the stopping point,
// enumeration and planning.
func (b *certifyBench) sweepOverhead(ctx context.Context, res *result, tr *tracer) float64 {
	var replay, total time.Duration
	for _, op := range b.traced {
		total += op.wall
		for _, c := range op.cert.Candidates {
			if c.Infeasible {
				continue
			}
			s := tr.start("scenario.run_deviation", 0)
			t0 := time.Now()
			_, err := op.sc.RunDeviation(ctx, op.seed, c.Candidate,
				scenario.Opts{N: op.cert.N, Trials: c.Trials, Workers: b.cfg.workers})
			replay += time.Since(t0)
			tr.end(s)
			res.check(err == nil, "replay %s candidate %s: %v", op.sc.Name, c.Candidate, err)
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - replay.Seconds()/total.Seconds()
}
