// Package attacks implements every adversarial deviation studied in the
// paper, as executable strategies for the ring simulator:
//
//   - BasicSingle: the single-adversary attack on Basic-LEAD (Claim B.1).
//   - Rushing: the unified rushing engine behind Lemma 4.1, Theorem 4.2
//     (k = ⌈√n⌉ equally spaced adversaries) and Theorem 4.3 (the Cubic
//     attack, k = Θ(n^{1/3}) adversaries at staggered distances), including
//     the distance planner that decides feasibility for arbitrary (n, k).
//   - Randomized: the Appendix C attack by randomly located adversaries that
//     do not know their locations or count (Theorem C.1).
//   - HalfRing: a consecutive coalition of ⌈n/2⌉ processors that controls
//     A-LEADuni, the executable face of the k-simulated-tree impossibility
//     (Theorem 7.2) and the tightness of Claim D.1's k < n/2 hypothesis.
//   - PhaseRushing: the rushing attack against PhaseAsyncLead with
//     k = √n+3 adversaries (Section 6 tightness remark), which also serves,
//     at sub-threshold k, as the strongest known deviation for the
//     resilience experiments.
//   - SumPhase: the k = 4 attack against the sum-based phase protocol
//     (Appendix E.4), piggybacking partial sums on adversary-validated
//     phase rounds.
//   - Abort: the destructive control — k silent processors that can only
//     force FAIL, the "can destroy, cannot profit" baseline every
//     equilibrium certificate sweeps.
//
// All attacks are deterministic deviations (WLOG per Appendix D): given the
// honest processors' randomness, the execution is fully determined. That
// includes the PhaseRushing steering search. It is a sequential scan inside
// the adversary's own strategy call, no longer a first-hit search on
// internal/engine.Search: it walks assignments in blocks that share all but
// the lowest digit, so each try costs one coordinate mix, and it still
// commits to the minimal satisfying coordinate assignment, so attack
// executions stay reproducible under parallel trials.
package attacks
