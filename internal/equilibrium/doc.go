// Package equilibrium certifies the game-theoretic fairness of registered
// scenarios by best-response search: for each scenario it sweeps a
// parameterized deviation space — attack family × coalition size × steering
// mode × target leader, enumerated by the scenario catalog's deviation
// families — runs every candidate through the parallel trial engine, and
// condenses the sweep into a Certificate: the maximum estimated coalition
// gain over the fair 1/n baseline, a multiplicity-corrected Wilson upper
// bound on it, and a verdict (fair, exploitable, or inconclusive).
//
// The sweep is deterministic end to end. Candidates run concurrently on
// the engine's deterministic seeding but fold into the certificate in a
// fixed enumeration order, early stopping rides the chunk-ordered frontier
// (a candidate's batch ends as soon as its corrected Wilson interval
// provably resolves the ε question, at a point independent of worker
// count), and the certificate's arg-max deviation
// carries a content-address digest in the scenario.JobKey style, so any
// certified exploit can be replayed exactly. Repeated runs with the same
// seed produce byte-identical certificates at any worker count — which is
// what lets the service daemon cache and replay them like any other result.
//
// Statistically, a certificate is a simultaneous claim over its whole
// deviation space: Wilson intervals are widened to the Bonferroni level
// alpha/m over the m candidates (the identity candidate additionally pays
// for its max-over-positions selection), so "fair" means every swept
// deviation's gain is confidently at most ε, not just the ones that looked
// small. The correction covers the space's multiplicity, not the early
// stopper's interim looks — alpha is exact for fixed-sample sweeps
// (Options.NoStop) and approximate near the threshold under early
// stopping, where a candidate that never clears the band runs its full
// budget and lands inconclusive rather than flipping a verdict. Honest scenarios sweep, by default, every applicable family up to
// the protocol's claimed resilience bound — certifying exactly the paper's
// claim — while attack scenarios sweep their own family across modes and
// sizes, exhibiting the tightness side.
package equilibrium
