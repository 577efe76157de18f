package repro

import (
	"context"
	"fmt"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
)

// The equilibrium certification layer: best-response deviation sweeps that
// turn the paper's game-theoretic fairness claim into a machine-checked
// statement per scenario.
type (
	// Certificate is one scenario's equilibrium certificate: the swept
	// deviation space, each candidate's gain over the fair 1/n baseline
	// under multiplicity-corrected Wilson bounds, the arg-max deviation
	// with a reproducible digest, and a verdict.
	Certificate = equilibrium.Certificate
	// CertifyOptions tunes a certification sweep (trial budget, fairness
	// threshold ε, error level α, coalition bound, worker count).
	CertifyOptions = equilibrium.Options
	// CertificateCandidate is one deviation candidate's measured outcome
	// within a certificate.
	CertificateCandidate = equilibrium.CandidateResult
	// CertifyProgress is one step of a running sweep, delivered in a
	// deterministic order (the service daemon streams it as NDJSON).
	CertifyProgress = equilibrium.Progress
	// CertificateVerdict is a certificate's conclusion: fair,
	// exploitable, or inconclusive.
	CertificateVerdict = equilibrium.Verdict
	// DeviationCandidate is one point of a scenario's deviation space:
	// attack family × coalition size × steering mode × target.
	DeviationCandidate = scenario.DeviationCandidate
	// DeviationFamily is one enumerable family of adversarial deviations
	// registered in the scenario catalog.
	DeviationFamily = scenario.DeviationFamily
)

// Certificate verdicts.
const (
	// VerdictFair certifies every swept deviation's gain at most ε.
	VerdictFair = equilibrium.VerdictFair
	// VerdictExploitable certifies some swept deviation's gain above ε.
	VerdictExploitable = equilibrium.VerdictExploitable
	// VerdictInconclusive means the trial budget resolved neither bound.
	VerdictInconclusive = equilibrium.VerdictInconclusive
)

// Certify runs the best-response deviation sweep for one registered
// scenario and returns its equilibrium certificate. Honest scenarios sweep
// every applicable deviation family up to the protocol's claimed resilience
// bound — certifying exactly the paper's fairness claim — while attack
// scenarios sweep their own family across modes and sizes. opts.Workers is
// the sweep's worker budget: up to that many candidates run at once, and
// opts.Progress still reports them in enumeration order. For a fixed seed
// the certificate is byte-identical at any opts.Workers.
func Certify(ctx context.Context, name string, seed int64, opts CertifyOptions) (*Certificate, error) {
	s, ok := scenario.Find(name)
	if !ok {
		return nil, fmt.Errorf("repro: no registered scenario %q (see Scenarios())", name)
	}
	return equilibrium.Certify(ctx, s, seed, opts)
}

// CertifyAll certifies every scenario in the catalog, in name order: one
// verdict per registered configuration.
func CertifyAll(ctx context.Context, seed int64, opts CertifyOptions) ([]*Certificate, error) {
	return equilibrium.CertifyAll(ctx, seed, opts)
}

// CertifyMatch certifies the scenarios whose names match the regular
// expression, in name order.
func CertifyMatch(ctx context.Context, pattern string, seed int64, opts CertifyOptions) ([]*Certificate, error) {
	return equilibrium.CertifyMatch(ctx, pattern, seed, opts)
}

// DeviationFamilies returns every registered deviation family, sorted by
// name — the enumerable attack space behind the certificates.
func DeviationFamilies() []DeviationFamily { return scenario.Families() }
