// Attack gallery: every adversarial deviation from the paper, run against
// its target protocol on a small ring, with the outcome it forces.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

type exhibit struct {
	name     string
	claim    string
	protocol repro.Protocol
	attack   repro.Attack
	n        int
	target   int64
}

func main() {
	phase := repro.NewPhaseAsyncLead()
	gallery := []exhibit{
		{
			name:     "single adversary vs Basic-LEAD",
			claim:    "Claim B.1: one rational agent controls the naive protocol",
			protocol: repro.NewBasicLead(),
			attack:   repro.NewBasicSingleAttack(),
			n:        32, target: 5,
		},
		{
			name:     "⌈√n⌉ equally spaced vs A-LEADuni",
			claim:    "Theorem 4.2: rushing breaks the buffering protocol at k=√n",
			protocol: repro.NewALead(),
			attack:   repro.NewSqrtAttack(0),
			n:        100, target: 17,
		},
		{
			name:     "cubic attack vs A-LEADuni",
			claim:    "Theorem 4.3: staggered distances push info k rounds ahead; k≈(2n)^{1/3}",
			protocol: repro.NewALead(),
			attack:   repro.NewCubicAttack(0),
			n:        512, target: 100,
		},
		{
			name:     "randomly located coalition vs A-LEADuni",
			claim:    "Theorem C.1: Θ(√(n log n)) random agents, ignorant of k and distances",
			protocol: repro.NewALead(),
			attack:   repro.NewRandomizedAttack(),
			n:        400, target: 9,
		},
		{
			name:     "half-ring coalition vs A-LEADuni",
			claim:    "Theorem 7.2 on the ring: some ⌈n/2⌉ coalition beats ANY protocol",
			protocol: repro.NewALead(),
			attack:   repro.NewHalfRingAttack(),
			n:        64, target: 2,
		},
		{
			name:     "√n+3 rushing vs PhaseAsyncLead",
			claim:    "Section 6 tightness: informed free slots steer the random function",
			protocol: phase,
			attack:   repro.NewPhaseRushingAttack(phase, 0),
			n:        400, target: 123,
		},
		{
			name:     "four colluders vs SumPhaseLead",
			claim:    "Appendix E.4: validation rounds leak partial sums without f",
			protocol: repro.NewSumPhaseLead(),
			attack:   repro.NewSumPhaseAttack(),
			n:        121, target: 60,
		},
	}

	const trials = 20
	for _, ex := range gallery {
		spec := repro.AttackSpec{N: ex.n, Protocol: ex.protocol, Attack: ex.attack, Target: ex.target, Seed: 1}
		dist, err := repro.RunAttackTrials(context.Background(), spec, trials, repro.TrialOptions{})
		if err != nil {
			log.Fatalf("%s: %v", ex.name, err)
		}
		fmt.Printf("%-42s n=%-4d target=%-3d forced %.0f%% (%d trials)\n",
			ex.name, ex.n, ex.target, 100*dist.WinRate(ex.target), trials)
		fmt.Printf("    %s\n", ex.claim)
	}

	// The flip side: below its threshold, the strongest deviation against
	// PhaseAsyncLead cannot even be scheduled.
	if _, err := repro.NewPhaseRushingAttack(phase, 2).Plan(400, 1, 0); err != nil {
		fmt.Printf("\nPhaseAsyncLead at k=2 ≤ √n/10: %v\n", err)
		fmt.Println("    Theorem 6.1: no coalition that small can steer the outcome.")
	}
}
