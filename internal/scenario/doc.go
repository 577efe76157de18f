// Package scenario is the catalog of runnable configurations: every point of
// the protocol × topology × scheduler × adversary space studied by the
// reproduction is a named, self-describing value with a uniform way to run
// it and a uniform outcome. The registry is the substrate of the
// cross-protocol differential tests (any two uniform-election scenarios must
// produce statistically indistinguishable leader distributions), of the
// schedule-independence property tests, and of the cmd/scenarios matrix
// runner; the harness experiments are thin lookups into it.
//
// # Naming and structure
//
// Scenarios are named <topology>/<protocol>/<scheduler> for honest runs and
// <topology>/<protocol>/attack=<attack> for adversarial ones, e.g.
// "ring/a-lead/fifo" or "complete/shamir/attack=pool". The catalog in
// catalog.go registers at init time; RegisterRingScenario,
// RegisterRingAttackScenario and RegisterDeviationFamily extend it at run
// time (compiled MAR specs). Locks guard both registries, so lookups are
// safe for concurrent use alongside late registrations.
//
// # Invariants
//
//   - Every scenario's trial batch routes through the parallel Monte-Carlo
//     engine (internal/engine): for a fixed seed the outcome is bit-for-bit
//     identical at any worker count.
//   - Ring scenarios reuse the exact seed derivation of
//     ring.Trials/RunAttackTrials (ring.TrialSeed), so a registry run
//     reproduces the corresponding harness experiment byte-identically.
//   - Trial jobs run their executions on the engine's per-worker arenas
//     (ring chunk jobs through ring.RunVector, fullnet/treeproto RunArena,
//     arena-recycled random schedulers), so batches stay near-allocation-
//     free; the reset-vs-fresh property test pins that an arena execution
//     equals a fresh one bit for bit on every ring scenario.
//   - A ring scenario's single execution (SingleRun) is built from the
//     same protocol, family and mode as its batch, and trial t of the
//     batch equals the single run under trial t's seed.
//   - Scenarios marked Uniform have leader distributions that are uniform
//     over [1..N] by construction; the differential test suite checks all
//     pairs of them against each other with chi-squared homogeneity.
package scenario
