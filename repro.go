// Package repro is the public face of a full reproduction of
//
//	Yifrach & Mansour, "Fair Leader Election for Rational Agents in
//	Asynchronous Rings and Networks", PODC 2018 (arXiv:1805.04778).
//
// It re-exports the building blocks a downstream user needs: the
// asynchronous ring simulator, the paper's protocols (Basic-LEAD, A-LEADuni,
// PhaseAsyncLead, the sum-output control variant), every adversarial
// deviation studied in the paper, classical baselines, the coin-toss
// reductions, the game-theoretic bias/resilience estimators, and the full
// experiment suite that regenerates EXPERIMENTS.md.
//
// Quick start:
//
//	proto := repro.NewPhaseAsyncLead()
//	res, err := repro.Run(repro.Spec{N: 400, Protocol: proto, Seed: 1})
//	// res.Output is the uniformly elected leader in [1..400].
//
// Attacks follow the same shape:
//
//	attack := repro.NewPhaseRushingAttack(proto, 0) // k = √n+3
//	spec := repro.AttackSpec{N: 400, Protocol: proto, Attack: attack, Target: 7, Seed: seed}
//	dist, err := repro.RunAttackTrials(ctx, spec, 100, repro.TrialOptions{})
//	fmt.Println(repro.Bias(dist)) // forced rate ≈ 1 for the target
package repro

import (
	"context"

	"repro/internal/attacks"
	"repro/internal/classic"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/protocols/phaselead"
	"repro/internal/protocols/sumphase"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Core model types.
type (
	// ProcID identifies a ring position (1..n); 1 is the origin.
	ProcID = sim.ProcID
	// Strategy is a single processor's behaviour.
	Strategy = sim.Strategy
	// Result is the outcome of one execution.
	Result = sim.Result
	// Protocol assigns honest strategies to every ring position.
	Protocol = ring.Protocol
	// Attack plans adversarial deviations (Definition 2.2).
	Attack = ring.Attack
	// Deviation is a planned coalition with its strategies.
	Deviation = ring.Deviation
	// Spec describes one execution.
	Spec = ring.Spec
	// AttackSpec describes one attack-trial configuration (the batched
	// counterpart of Spec).
	AttackSpec = ring.AttackSpec
	// Distribution aggregates outcomes over trials.
	Distribution = ring.Distribution
	// BiasReport is the empirical ε of Definition 2.3.
	BiasReport = core.BiasReport
	// Utility is a rational utility function (Definition 2.1).
	Utility = core.Utility
	// PhaseParams tunes PhaseAsyncLead (l, m, function seed).
	PhaseParams = phaselead.Params
	// Experiment is one entry of the reproduction suite.
	Experiment = harness.Experiment
	// ExperimentConfig tunes an experiment run.
	ExperimentConfig = harness.Config
	// ExperimentTable is an experiment's rendered result.
	ExperimentTable = harness.Table
	// ConcurrentOptions tunes the goroutine-per-processor runtime.
	ConcurrentOptions = conc.Options
	// TrialOptions tunes a parallel trial batch (workers, adaptive early
	// stopping, progress, arena pooling) on the internal/engine runner.
	TrialOptions = ring.TrialOptions
)

// Options structs.
//
// Every entry point that runs a trial batch takes exactly one options
// struct, and the four of them share a vocabulary — a field with the same
// name means the same thing everywhere:
//
//   - Workers: engine worker count, 0 = runtime.NumCPU(). Never changes
//     results.
//   - Progress: deterministic chunk-ordered observation hook. Never changes
//     results.
//   - Stop: adaptive early-stopping rule over the same deterministic
//     prefixes. Changes the trial count, never the per-trial outcomes.
//
// The structs, by entry point:
//
//   - TrialOptions — Trials/TrialsOpts and RunAttackTrials. Adds Arenas.
//   - ScenarioOpts — RunScenario. Adds per-scenario overrides (N, Trials,
//     K, Target) on top of the shared trio.
//   - CertifyOptions — Certify/CertifyAll/CertifyMatch. Shares Workers and
//     Progress; its stopping knob is the inverted NoStop, because the
//     certifier early-stops by default and folds the rule into its cache
//     key.
//   - ConcurrentOptions — RunConcurrent only. The odd one out: it tunes a
//     single goroutine-per-processor execution (LinkCapacity,
//     StallTimeout), not a batch, so it shares no fields with the other
//     three.

// Protocol constructors.

// NewBasicLead returns the naive protocol of Appendix B (broken by one
// adversary).
func NewBasicLead() Protocol { return basiclead.New() }

// NewALead returns A-LEADuni (Section 3), resilient to O(n^{1/4}) coalitions.
func NewALead() Protocol { return alead.New() }

// NewPhaseAsyncLead returns PhaseAsyncLead (Section 6) with the paper's
// parameters (l = ⌈10√n⌉, m = 2n²), resilient to √n/10 coalitions.
func NewPhaseAsyncLead() phaselead.Protocol { return phaselead.NewDefault() }

// NewPhaseAsyncLeadWithParams returns PhaseAsyncLead with custom parameters.
func NewPhaseAsyncLeadWithParams(p PhaseParams) phaselead.Protocol { return phaselead.New(p) }

// NewSumPhaseLead returns the sum-output control variant of Appendix E.4
// (broken by four colluders; exists to show why the random function is
// needed).
func NewSumPhaseLead() Protocol { return sumphase.New() }

// NewChangRoberts returns the classical Chang–Roberts baseline.
func NewChangRoberts() Protocol { return classic.ChangRoberts{} }

// NewPeterson returns Peterson's O(n log n) baseline.
func NewPeterson() Protocol { return classic.Peterson{} }

// Attack constructors.

// NewBasicSingleAttack returns the Claim B.1 single-adversary attack on
// Basic-LEAD.
func NewBasicSingleAttack() Attack { return attacks.BasicSingle{} }

// NewSqrtAttack returns the Theorem 4.2 attack: k equally spaced rushing
// adversaries against A-LEADuni (k = 0 picks ⌈√n⌉).
func NewSqrtAttack(k int) Attack { return attacks.Rushing{Place: attacks.PlaceEqual, K: k} }

// NewCubicAttack returns the Theorem 4.3 attack: k staggered rushing
// adversaries against A-LEADuni (k = 0 picks the minimum feasible,
// ≈ (2n)^{1/3}).
func NewCubicAttack(k int) Attack { return attacks.Rushing{Place: attacks.PlaceStaggered, K: k} }

// NewRandomizedAttack returns the Theorem C.1 attack by randomly located
// adversaries that know neither their count nor their distances.
func NewRandomizedAttack() Attack { return attacks.Randomized{} }

// NewHalfRingAttack returns the ⌈n/2⌉ consecutive coalition that controls
// A-LEADuni (the executable face of Theorem 7.2 on the ring).
func NewHalfRingAttack() Attack { return attacks.HalfRing{} }

// NewPhaseRushingAttack returns the Section 6 tightness attack against
// PhaseAsyncLead (k = 0 picks √n+3).
func NewPhaseRushingAttack(p phaselead.Protocol, k int) Attack {
	return attacks.PhaseRushing{Protocol: p, K: k}
}

// NewPhaseChaseAttack returns the chase-mode deviation: validity saved,
// bias provably lost (the mechanism of Theorem 6.1, exhibited).
func NewPhaseChaseAttack(p phaselead.Protocol, k int) Attack {
	return attacks.PhaseRushing{Protocol: p, K: k, Mode: attacks.PhaseChase}
}

// NewSumPhaseAttack returns the Appendix E.4 four-colluder attack on the
// sum-output phase protocol.
func NewSumPhaseAttack() Attack { return attacks.SumPhase{} }

// Execution.

// Run executes one election on the deterministic event-driven simulator.
func Run(spec Spec) (Result, error) { return ring.Run(spec) }

// RunConcurrent executes one election on the goroutine-per-processor
// runtime (channels as FIFO links, the Go scheduler as the oblivious
// message schedule).
func RunConcurrent(spec Spec, opts ConcurrentOptions) (Result, error) {
	return conc.Run(spec, opts)
}

// Trials runs many executions with derived seeds and aggregates outcomes.
// Batches run on the parallel trial engine across every CPU; for a fixed
// seed the distribution is identical at any worker count.
func Trials(spec Spec, trials int) (*Distribution, error) { return ring.Trials(spec, trials) }

// TrialsOpts is Trials with a context (cancellation) and engine options
// (worker count, adaptive early stopping).
func TrialsOpts(ctx context.Context, spec Spec, trials int, opts TrialOptions) (*Distribution, error) {
	return ring.TrialsOpts(ctx, spec, trials, opts)
}

// RunAttackTrials plans and runs an attack repeatedly, aggregating
// outcomes. Batches run on the parallel trial engine across every CPU; for
// a fixed spec the distribution is identical at any worker count. The zero
// TrialOptions is the sensible default.
func RunAttackTrials(ctx context.Context, spec AttackSpec, trials int, opts TrialOptions) (*Distribution, error) {
	return ring.RunAttackTrials(ctx, spec, trials, opts)
}

// StopWhenResolved builds a TrialOptions.Stop rule that ends a batch once
// the empirical ε estimate's Wilson interval is narrower than halfWidth on
// both sides (z = 1.96 for 95%), after at least minTrials trials.
func StopWhenResolved(halfWidth float64, minTrials int, z float64) func(*Distribution) bool {
	return ring.StopWhenResolved(halfWidth, minTrials, z)
}

// Analysis.

// Bias summarizes a distribution as a Definition 2.3 bias report.
func Bias(dist *Distribution) BiasReport { return core.Bias(dist) }

// SelfishUtility returns the utility of a processor that only values its
// own election.
func SelfishUtility(n int, self int64) Utility { return core.NewSelfishUtility(n, self) }

// ExpectedUtility evaluates a rational utility against a distribution.
func ExpectedUtility(dist *Distribution, u Utility) (float64, error) {
	return core.ExpectedUtility(dist, u)
}

// Experiments returns the full reproduction suite (E1..E15).
func Experiments() []Experiment { return harness.All() }
