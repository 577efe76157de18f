package service

import (
	"fmt"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// CertRequest describes one certification sweep: a registered scenario plus
// the sweep parameters that pin its certificate. Zero fields keep the
// equilibrium defaults (2000-trial budget, ε = 0.05, α = 0.05, the
// protocol's resilience bound).
type CertRequest struct {
	// Scenario is the registered scenario name.
	Scenario string `json:"scenario"`
	// N overrides the network size.
	N int `json:"n,omitempty"`
	// Trials is the per-candidate trial budget.
	Trials int `json:"trials,omitempty"`
	// MinTrials is the earliest early-stopping point.
	MinTrials int `json:"min_trials,omitempty"`
	// MaxK bounds honest sweeps' coalition sizes.
	MaxK int `json:"max_k,omitempty"`
	// Epsilon and Alpha are the certified threshold and error level.
	Epsilon float64 `json:"epsilon,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`
	// Seed is the sweep's base seed; it is part of the certificate's
	// identity.
	Seed int64 `json:"seed"`
}

// options lowers the request onto equilibrium.Options (identity-relevant
// fields only; the scheduler adds workers/arenas/progress at run time).
func (r CertRequest) options(version string) equilibrium.Options {
	return equilibrium.Options{
		N: r.N, Trials: r.Trials, MinTrials: r.MinTrials, MaxK: r.MaxK,
		Epsilon: r.Epsilon, Alpha: r.Alpha, Version: version,
	}
}

func (r CertRequest) ident() (string, int64) { return r.Scenario, r.Seed }

// key is the certificate's content address, equilibrium.Key.
func (r CertRequest) key(sc scenario.Scenario, version string) string {
	return equilibrium.Key(sc, r.Seed, r.options(version))
}

// validate applies the submit-time checks for a certification request.
// A sweep occupies one engine slot for its whole duration, so the
// MaxTrials bound applies to the sweep's worst case — the per-candidate
// budget times the enumerated space — not to one candidate alone.
func (r CertRequest) validate(sc scenario.Scenario, maxTrials int) error {
	n := sc.N
	if r.N > 0 {
		n = r.N
	}
	switch {
	case r.N < 0 || r.Trials < 0 || r.MinTrials < 0 || r.MaxK < 0:
		return fmt.Errorf("%s: negative override", sc.Name)
	case r.Epsilon < 0 || r.Epsilon >= 1 || r.Alpha < 0 || r.Alpha >= 1:
		return fmt.Errorf("%s: epsilon/alpha out of [0,1)", sc.Name)
	case n < sc.MinN:
		return fmt.Errorf("%s needs n ≥ %d, got %d", sc.Name, sc.MinN, n)
	case r.Trials > maxTrials:
		// Checked first so the sweep-total product below cannot overflow.
		return fmt.Errorf("%s: %d trials exceeds the per-job bound %d", sc.Name, r.Trials, maxTrials)
	}
	trials := r.Trials
	if trials <= 0 {
		trials = equilibrium.DefaultTrials
	}
	candidates := len(sc.DeviationSpace(scenario.Opts{N: r.N, Trials: r.Trials, K: 0}, r.MaxK, nil))
	if candidates < 1 {
		candidates = 1
	}
	if total := trials * candidates; total > maxTrials {
		return fmt.Errorf("%s: sweep of %d candidates × %d trials = %d exceeds the per-job bound %d",
			sc.Name, candidates, trials, total, maxTrials)
	}
	return nil
}

// runCert is the certification work: one best-response sweep on one
// engine slot, held for the sweep's whole duration, publishing each
// finished candidate in enumeration order. Its trials count once, when the
// candidate reports.
func (s *Scheduler) runCert(j *CertJob, sc scenario.Scenario) (any, error) {
	release, err := s.slot(j.ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	j.start()
	opts := j.Req.options(s.version)
	opts.Workers = s.cfg.Workers
	opts.Arenas = s.arenas
	trials := 0
	opts.Progress = func(p equilibrium.Progress) {
		trials += p.Trials
		j.publish(s, p, trials)
	}
	return equilibrium.Certify(j.ctx, sc, j.Req.Seed, opts)
}
