// Scenarios: the paper's resilience landscape (Section 1.1), end to end.
//
// How many rational colluders can fair leader election survive? It depends
// entirely on what the network lets them see before they commit:
//
//	synchronous (any topology)        n−1   nothing to rush
//	async complete graph (Shamir)     ⌈n/2⌉−1   shares hide secrets
//	async unidirectional ring         Θ(√n)   this paper's battleground
//	any topology                      < ⌈n/2⌉   Theorem 7.2 ceiling
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const n = 12
	fmt.Printf("Fair leader election, n = %d processors, one scenario at a time.\n\n", n)

	// 1. Synchronous complete graph, n−1 colluders.
	wins := map[int64]int{}
	const trials = 300
	for seed := int64(0); seed < trials; seed++ {
		procs, err := repro.NewSynchronousCompleteElection(n, n-1, seed)
		if err != nil {
			log.Fatal(err)
		}
		res, err := repro.RunSynchronous(procs, n+4)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Failed {
			wins[res.Output]++
		}
	}
	maxWin := 0
	for _, c := range wins {
		if c > maxWin {
			maxWin = c
		}
	}
	fmt.Printf("synchronous, k = n−1 = %d colluders: max-win %.3f over %d trials (1/n = %.3f)\n",
		n-1, float64(maxWin)/trials, trials, 1.0/n)
	fmt.Println("  → simultaneity beats even a maximal coalition: their secrets commit blind.")

	// 2. Asynchronous complete graph with Shamir sharing.
	e, err := repro.NewCompleteElection(n, 0)
	if err != nil {
		log.Fatal(err)
	}
	threshold := e.Threshold()
	if _, err := e.RunAttack(threshold-1, 2, 1, nil); err != nil {
		fmt.Printf("\nasync complete, k = ⌈n/2⌉−1 = %d: %v\n", threshold-1, err)
	}
	forced := 0
	for seed := int64(0); seed < 20; seed++ {
		res, err := e.RunAttack(threshold, 2, seed, nil)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Failed && res.Output == 2 {
			forced++
		}
	}
	fmt.Printf("async complete, k = ⌈n/2⌉ = %d: forced rate %d/20\n", threshold, forced)
	fmt.Println("  → Shamir hiding is exactly tight: one more colluder and they reconstruct early.")

	// 3. The asynchronous ring: the paper's contribution.
	phase := repro.NewPhaseAsyncLead()
	const ringN = 400
	if _, err := repro.NewPhaseRushingAttack(phase, 2).Plan(ringN, 1, 0); err != nil {
		fmt.Printf("\nasync ring (n=%d), k = 2 ≤ √n/10: attack planning fails (Theorem 6.1)\n", ringN)
	}
	attack := repro.NewPhaseRushingAttack(phase, 0) // k = √n+3
	spec := repro.AttackSpec{N: ringN, Protocol: phase, Attack: attack, Target: 7, Seed: 1}
	dist, err := repro.RunAttackTrials(context.Background(), spec, 10, repro.TrialOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async ring (n=%d), k = √n+3 = 23: forced rate %.2f\n", ringN, dist.WinRate(7))
	fmt.Println("  → the serial information flow of a ring caps fairness at Θ(√n) colluders.")

	// 4. The universal ceiling: trees and the half ring.
	tree, err := repro.PathGraph(9)
	if err != nil {
		log.Fatal(err)
	}
	te, err := repro.NewTreeElection(tree, 5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := te.Run(repro.TreeElectionSpec{Seed: 1, AdversaryRoot: true, Target: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntree network, k = 1 (the convergecast root): forced leader %d\n", res.Output)
	fmt.Println("  → trees are 1-simulated trees: no topology escapes Theorem 7.2's ⌈n/2⌉ ceiling,")
	fmt.Println("    and on trees the ceiling collapses to a single rational agent.")
}
