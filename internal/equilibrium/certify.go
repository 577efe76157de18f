package equilibrium

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Verdict is a certificate's conclusion about its deviation space.
type Verdict string

// Certificate verdicts.
const (
	// VerdictFair means every swept deviation's gain is, with
	// multiplicity-corrected confidence, at most ε over the 1/n baseline.
	VerdictFair Verdict = "fair"
	// VerdictExploitable means some swept deviation's gain is, with the
	// same corrected confidence, strictly above ε.
	VerdictExploitable Verdict = "exploitable"
	// VerdictInconclusive means the trial budget resolved neither bound.
	VerdictInconclusive Verdict = "inconclusive"
)

// Sweep defaults.
const (
	// DefaultTrials is the per-candidate trial budget; early stopping
	// usually ends candidates far sooner.
	DefaultTrials = 2000
	// DefaultMinTrials is the earliest point a candidate's batch may stop.
	DefaultMinTrials = 100
	// DefaultEpsilon is the fairness threshold ε of Definition 2.3.
	DefaultEpsilon = 0.05
	// DefaultAlpha is the simultaneous error level of the certificate.
	DefaultAlpha = 0.05
)

// Options tunes one certification sweep. The zero value sweeps the
// scenario's registered defaults with the package default budget.
type Options struct {
	// N overrides the network size (0 keeps the scenario default).
	N int
	// Trials is the per-candidate trial budget; 0 picks DefaultTrials.
	Trials int
	// MinTrials is the earliest early-stopping point; 0 picks
	// DefaultMinTrials.
	MinTrials int
	// Workers is the sweep's worker budget; 0 picks runtime.NumCPU(). Up
	// to Workers candidates run at once, each as a single-worker batch; a
	// sweep with fewer candidates splits the budget among them.
	// Certificates are identical for any value.
	Workers int
	// MaxK bounds coalition sizes for honest scenarios' sweeps; 0 picks
	// the protocol's claimed resilience bound (Scenario.ResilientK), so
	// the default certificate checks exactly the paper's claim. Attack
	// scenarios ignore it: they exist above the bound.
	MaxK int
	// Epsilon is the fairness threshold; 0 picks DefaultEpsilon.
	Epsilon float64
	// Alpha is the simultaneous error level; 0 picks DefaultAlpha.
	Alpha float64
	// Targets overrides the swept target leaders (nil picks
	// scenario.DefaultSweepTargets).
	Targets []int64
	// NoStop disables per-candidate early stopping: every candidate runs
	// its full budget. Differential tests use it to reproduce plain trial
	// batches byte-for-byte, and it is the mode for boundary-critical
	// certification: with fixed-sample batches the certificate's Alpha is
	// exact, whereas early stopping's interim looks make coverage
	// approximate for gains sitting near ε (see stopRule).
	NoStop bool
	// Version names the code revision in every digest; "" picks "dev".
	// The service daemon passes its build version so cached certificates
	// never survive a rebuild.
	Version string
	// Arenas, if non-nil, draws engine worker arenas from a shared pool
	// (the service daemon's resident mode).
	Arenas *engine.ArenaPool
	// Progress, if non-nil, reports each finished candidate in enumeration
	// order — once it and every earlier candidate have finished — on the
	// calling goroutine, never two calls at once: a deterministic sequence
	// for a fixed seed, at any worker count.
	Progress func(Progress)
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = DefaultTrials
	}
	if o.MinTrials <= 0 {
		o.MinTrials = DefaultMinTrials
	}
	if o.Epsilon <= 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Version == "" {
		o.Version = "dev"
	}
	return o
}

// Progress is one step of a running sweep: the next candidate in
// enumeration order and the running best. The sequence is deterministic
// for a fixed seed — candidates may finish in any order, but they report in
// enumeration order — so streamed progress can be replayed like any other
// result.
type Progress struct {
	// Scenario names the certified scenario.
	Scenario string `json:"scenario"`
	// Index and Total locate the finished candidate in the sweep (Index
	// counts from 1).
	Index int `json:"index"`
	Total int `json:"total"`
	// Candidate is the reported deviation.
	Candidate scenario.DeviationCandidate `json:"candidate"`
	// Trials is how many trials the candidate ran before resolving.
	Trials int `json:"trials"`
	// Gain is the candidate's estimated gain over the 1/n baseline.
	Gain float64 `json:"gain"`
	// BestGain is the running maximum gain over the sweep so far.
	BestGain float64 `json:"best_gain"`
}

// CandidateResult is one deviation candidate's measured outcome.
type CandidateResult struct {
	// Candidate identifies the deviation.
	Candidate scenario.DeviationCandidate `json:"candidate"`
	// Digest is the candidate run's content address (DeviationKey): a
	// reproducible handle on exactly this batch.
	Digest string `json:"digest"`
	// Trials is the number of trials actually run (early stopping may end
	// the batch before the budget).
	Trials int `json:"trials"`
	// Wins counts trials electing Leader.
	Wins int `json:"wins"`
	// Leader is the measured cell: the candidate's target, or the
	// most-elected position for the identity candidate.
	Leader int64 `json:"leader"`
	// Gain is Wins/Trials − 1/n, the estimated gain over the fair
	// baseline; GainLo and GainHi bound it with the certificate's
	// multiplicity-corrected Wilson interval.
	Gain   float64 `json:"gain"`
	GainLo float64 `json:"gain_lo"`
	GainHi float64 `json:"gain_hi"`
	// FailRate is the fraction of FAIL outcomes.
	FailRate float64 `json:"fail_rate"`
	// Infeasible marks candidates whose planning failed at run time
	// (Reason carries the error); they carry no measurement and do not
	// weigh on the verdict.
	Infeasible bool   `json:"infeasible,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// Certificate is the machine-checked fairness statement for one scenario:
// the swept deviation space, each candidate's measured gain under
// simultaneous Wilson bounds, the arg-max deviation, and the verdict.
type Certificate struct {
	// Scenario, Topology, Protocol and Attack mirror the catalog entry.
	Scenario string `json:"scenario"`
	Topology string `json:"topology"`
	Protocol string `json:"protocol"`
	Attack   string `json:"attack,omitempty"`
	// Version names the code revision the certificate was computed by.
	Version string `json:"version"`
	// N is the certified network size; Seed the sweep's base seed.
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
	// Trials is the per-candidate budget, MinTrials the earliest stopping
	// point, and MaxK the resolved coalition bound (0 = unbounded sweep
	// of an attack scenario's own family).
	Trials    int `json:"trials"`
	MinTrials int `json:"min_trials"`
	MaxK      int `json:"max_k,omitempty"`
	// Epsilon and Alpha are the certified threshold and error level; Z is
	// the Bonferroni-corrected critical value applied to every candidate
	// (the identity candidate additionally pays for its max over the n
	// positions).
	Epsilon float64 `json:"epsilon"`
	Alpha   float64 `json:"alpha"`
	Z       float64 `json:"z"`
	// Baseline is the fair win probability 1/n.
	Baseline float64 `json:"baseline"`
	// Candidates is the full sweep, in enumeration order.
	Candidates []CandidateResult `json:"candidates"`
	// BestIndex locates the arg-max candidate (largest estimated gain)
	// in Candidates; −1 when no candidate was feasible.
	BestIndex int `json:"best_index"`
	// MaxGain is the arg-max candidate's estimated gain; MaxGainLower and
	// MaxGainUpper are the largest corrected lower and upper gain bounds
	// over the sweep — the quantities the verdict reads.
	MaxGain      float64 `json:"max_gain"`
	MaxGainLower float64 `json:"max_gain_lower"`
	MaxGainUpper float64 `json:"max_gain_upper"`
	// Verdict is the certified conclusion.
	Verdict Verdict `json:"verdict"`
	// Key is the certificate's own content address (CertificateKey).
	Key string `json:"key"`
}

// Best returns the arg-max candidate result, or nil when nothing was
// feasible.
func (c *Certificate) Best() *CandidateResult {
	if c.BestIndex < 0 || c.BestIndex >= len(c.Candidates) {
		return nil
	}
	return &c.Candidates[c.BestIndex]
}

// Certify runs the best-response sweep for one scenario and returns its
// certificate. The sweep is deterministic: for a fixed seed and options the
// certificate is byte-identical at any worker count. Candidates run
// concurrently (see runInOrder) but fold into the certificate, and report
// to Options.Progress, in enumeration order.
func Certify(ctx context.Context, sc scenario.Scenario, seed int64, o Options) (*Certificate, error) {
	o = o.withDefaults()
	runOpts := scenario.Opts{N: o.N, Trials: o.Trials, Arenas: o.Arenas}
	n := sc.N
	if o.N > 0 {
		n = o.N
	}
	if n < sc.MinN {
		return nil, fmt.Errorf("equilibrium: %s needs n ≥ %d, got %d", sc.Name, sc.MinN, n)
	}
	for _, t := range o.Targets {
		if t < 1 || t > int64(n) {
			return nil, fmt.Errorf("equilibrium: %s: target %d out of range [1,%d]", sc.Name, t, n)
		}
	}
	// Attack scenarios sweep their own family unconditionally, so MaxK is
	// normalized away there: requests differing only in an inert bound
	// must share one certificate identity.
	maxK := 0
	if sc.Attack == "" {
		maxK = o.MaxK
		if maxK <= 0 {
			maxK = sc.ResilientK(n)
		}
	}
	space := sc.DeviationSpace(runOpts, maxK, o.Targets)
	if len(space) == 0 {
		return nil, fmt.Errorf("equilibrium: %s has an empty deviation space", sc.Name)
	}
	baseline := 1 / float64(n)
	threshold := baseline + o.Epsilon
	m := len(space)
	z := stats.BonferroniZ(o.Alpha, m)
	// The identity candidate reports the maximum over the n positions, so
	// its interval pays for that selection too; the total error stays
	// within alpha.
	zIdentity := stats.BonferroniZ(o.Alpha, m*n)

	cert := &Certificate{
		Scenario:  sc.Name,
		Topology:  sc.Topology,
		Protocol:  sc.Protocol,
		Attack:    sc.Attack,
		Version:   o.Version,
		N:         n,
		Seed:      seed,
		Trials:    o.Trials,
		MinTrials: o.MinTrials,
		MaxK:      maxK,
		Epsilon:   o.Epsilon,
		Alpha:     o.Alpha,
		Z:         z,
		Baseline:  baseline,
		BestIndex: -1,
	}
	devID := devIdentity{
		N: n, Trials: o.Trials, MinTrials: o.MinTrials,
		Epsilon: o.Epsilon, Alpha: o.Alpha, M: m, NoStop: o.NoStop,
	}
	measure := func(ctx context.Context, i, workers int) (CandidateResult, error) {
		cand := space[i]
		cz := z
		if cand.Family == scenario.FamilyIdentity {
			cz = zIdentity
		}
		candOpts := runOpts
		candOpts.Workers = workers
		if !o.NoStop {
			candOpts.Stop = stopRule(cand, cz, threshold, o.MinTrials)
		}
		res := CandidateResult{Candidate: cand, Digest: DeviationKey(o.Version, sc.Name, seed, devID, cand)}
		dist, err := sc.RunDeviation(ctx, seed, cand, candOpts)
		var planErr *ring.PlanError
		switch {
		case err != nil && errors.As(err, &planErr):
			// Per-trial planning rejection: enumeration probes planning
			// with one representative seed, so a seed-dependent family
			// (randomized placement) can still refuse some trial seeds.
			// That is genuine infeasibility, recorded and excluded.
			res.Infeasible, res.Reason = true, err.Error()
		case err != nil:
			// Anything else — an engine, simulation, or configuration
			// failure — must fail the sweep: silently dropping the
			// candidate could certify "fair" while the profitable
			// deviation was the one that crashed.
			return res, fmt.Errorf("equilibrium: %s: candidate %s: %w", sc.Name, cand, err)
		default:
			wins, leader := winCell(dist, cand)
			lo, hi := stats.WilsonInterval(wins, dist.Trials, cz)
			rate := float64(wins) / float64(dist.Trials)
			res.Trials, res.Wins, res.Leader = dist.Trials, wins, leader
			res.Gain, res.GainLo, res.GainHi = rate-baseline, lo-baseline, hi-baseline
			res.FailRate = dist.FailureRate()
		}
		return res, nil
	}
	bestGain, anyFeasible := 0.0, false
	fold := func(i int, res CandidateResult) {
		if !res.Infeasible {
			if cert.BestIndex < 0 || res.Gain > bestGain {
				cert.BestIndex, bestGain = i, res.Gain
			}
			if !anyFeasible || res.GainLo > cert.MaxGainLower {
				cert.MaxGainLower = res.GainLo
			}
			if !anyFeasible || res.GainHi > cert.MaxGainUpper {
				cert.MaxGainUpper = res.GainHi
			}
			anyFeasible = true
		}
		cert.Candidates = append(cert.Candidates, res)
		if o.Progress != nil {
			o.Progress(Progress{
				Scenario:  sc.Name,
				Index:     i + 1,
				Total:     m,
				Candidate: res.Candidate,
				Trials:    res.Trials,
				Gain:      res.Gain,
				BestGain:  bestGain,
			})
		}
	}
	if err := runInOrder(ctx, m, o.Workers, measure, fold); err != nil {
		return nil, err
	}
	cert.MaxGain = bestGain
	switch {
	case cert.BestIndex < 0:
		cert.Verdict = VerdictInconclusive
	case cert.MaxGainLower > o.Epsilon:
		cert.Verdict = VerdictExploitable
	case cert.MaxGainUpper <= o.Epsilon:
		cert.Verdict = VerdictFair
	default:
		cert.Verdict = VerdictInconclusive
	}
	cert.Key = Key(sc, seed, o)
	return cert, nil
}

// runInOrder runs a sweep's m candidates — measure(ctx, i, w) runs
// candidate i on w engine workers — on up to workers concurrent lanes (0
// picks runtime.NumCPU()), and hands the results to report in enumeration
// order: report(i, ·) runs on the calling goroutine once candidates 0..i
// have all finished, so calls never overlap. With at least as many
// candidates as workers every lane is a single-worker batch; fewer
// candidates split the workers among them, so a one-candidate sweep runs
// on all of them.
//
// Scheduling cannot move a byte: a candidate's stopping point depends only
// on its chunk-ordered prefixes, whatever its worker count (a single worker
// never claims a chunk past its own stopping point, so none is discarded),
// and the fold happens in enumeration order. A candidate error ends the
// sweep with the lowest-index failure, after reporting every candidate
// before it — exactly what a sequential sweep returns — and cancellation
// returns ctx.Err(). Either way no lane outlives the call.
func runInOrder(ctx context.Context, m, workers int,
	measure func(ctx context.Context, i, workers int) (CandidateResult, error),
	report func(i int, res CandidateResult)) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	lanes := min(workers, m)
	type outcome struct {
		i   int
		res CandidateResult
		err error
	}
	laneCtx, cancel := context.WithCancel(ctx)
	var (
		wg     sync.WaitGroup
		next   atomic.Int64            // next unclaimed candidate
		failed atomic.Bool             // some candidate failed: claim no more
		done   = make(chan outcome, m) // buffered: a lane never blocks on it
	)
	defer func() {
		cancel()
		wg.Wait()
	}()
	for l := 0; l < lanes; l++ {
		w := workers / lanes
		if l < workers%lanes {
			w++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for laneCtx.Err() == nil && !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= m {
					return
				}
				res, err := measure(laneCtx, i, w)
				if err != nil {
					// Candidates are claimed in index order, so every
					// unclaimed one lies past this failure: none of them
					// can be reported any more.
					failed.Store(true)
				}
				done <- outcome{i, res, err}
			}
		}()
	}
	got := make([]*outcome, m)
	for frontier := 0; frontier < m; {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case out := <-done:
			got[out.i] = &out
		}
		for ; frontier < m && got[frontier] != nil; frontier++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := got[frontier].err; err != nil {
				return err
			}
			report(frontier, got[frontier].res)
		}
	}
	return nil
}

// winCell picks the measured cell of a candidate's distribution: the forced
// target, or the most-elected position for the identity candidate.
func winCell(d *ring.Distribution, cand scenario.DeviationCandidate) (wins int, leader int64) {
	if cand.Family == scenario.FamilyIdentity || cand.Target == 0 {
		l, _ := d.MaxWin()
		return d.Counts[l], l
	}
	return d.Counts[cand.Target], cand.Target
}

// stopRule builds the per-candidate early-stopping rule: end the batch once
// the corrected Wilson interval of the measured cell — the same cell
// winCell reports, one source of truth — lies entirely below or entirely
// above the fairness threshold. The rule sees deterministic chunk-ordered
// prefixes (engine.Options.Stop), so the stopping point — and hence the
// certificate — is identical at any worker count.
//
// Statistical caveat: the interim looks reuse the final critical value z,
// so under optional stopping the realized per-candidate error can exceed
// alpha/m for gains sitting near the threshold — the certificate's Alpha
// is exact only for fixed-sample sweeps (Options.NoStop), which is the
// mode to use when a gain is genuinely boundary-critical. The catalog's
// scenarios live far from ε on both sides (honest gains ≈ 0, exploits
// ≈ 1−1/n), where the inflation is immaterial; a near-threshold candidate
// that never clears the band simply runs its full budget and lands
// inconclusive, never a false verdict at the budget's own resolution.
func stopRule(cand scenario.DeviationCandidate, z, threshold float64, minTrials int) func(*ring.Distribution, int) bool {
	return func(d *ring.Distribution, _ int) bool {
		if d.Trials < minTrials {
			return false
		}
		wins, _ := winCell(d, cand)
		lo, hi := stats.WilsonInterval(wins, d.Trials, z)
		return hi <= threshold || lo > threshold
	}
}

// CertifyAll certifies every registered scenario at its defaults, in
// catalog order.
func CertifyAll(ctx context.Context, seed int64, o Options) ([]*Certificate, error) {
	return certifyEach(ctx, scenario.All(), seed, o)
}

// CertifyMatch certifies the scenarios whose names match the regular
// expression, in catalog order.
func CertifyMatch(ctx context.Context, pattern string, seed int64, o Options) ([]*Certificate, error) {
	scs, err := scenario.Match(pattern)
	if err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("equilibrium: no scenario matches %q", pattern)
	}
	return certifyEach(ctx, scs, seed, o)
}

func certifyEach(ctx context.Context, scs []scenario.Scenario, seed int64, o Options) ([]*Certificate, error) {
	out := make([]*Certificate, 0, len(scs))
	for _, sc := range scs {
		cert, err := Certify(ctx, sc, seed, o)
		if err != nil {
			return nil, fmt.Errorf("equilibrium: %s: %w", sc.Name, err)
		}
		out = append(out, cert)
	}
	return out, nil
}
