package repro

// Allocation-regression tests for the trial hot path. Since the arena PR,
// one trial on a recycled per-worker arena allocates only the protocol's own
// strategy vector (n strategy objects plus the slice, plus a constant number
// of protocol-internal objects); the simulation core — network, links,
// queues, PRNGs, result buffers — is recycled and contributes zero. These
// tests pin that ceiling with testing.AllocsPerRun so a regression fails CI
// instead of silently re-inflating the Monte-Carlo workloads.

import (
	"testing"

	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/protocols/phaselead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// trialAllocs measures steady-state allocations per arena trial of the given
// spec, varying the seed per run like a real batch does.
func trialAllocs(t *testing.T, spec ring.Spec, runs int) float64 {
	t.Helper()
	arena := sim.NewArena()
	seed := int64(0)
	trial := func() {
		spec.Seed = seed
		seed++
		if _, err := ring.RunArena(spec, arena); err != nil {
			t.Fatal(err)
		}
	}
	trial() // warm the arena: the first trial builds the network
	return testing.AllocsPerRun(runs, trial)
}

func TestArenaTrialAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		spec   ring.Spec
		budget float64 // measured steady state + small headroom
	}{
		// Basic-LEAD n=8 measures 9 = n strategies + 1 slice.
		{"basic-lead/n=8", ring.Spec{N: 8, Protocol: basiclead.New()}, 12},
		// A-LEADuni n=16 measures 17 = n strategies + 1 slice.
		{"a-lead/n=16", ring.Spec{N: 16, Protocol: alead.New()}, 20},
		// PhaseAsyncLead n=16 measures 19 = n strategies + slice + the
		// randfunc.Func and its position-key table.
		{"phase-lead/n=16", ring.Spec{N: 16, Protocol: phaselead.NewDefault()}, 21},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := trialAllocs(t, tc.spec, 100)
			if got > tc.budget {
				t.Errorf("arena trial allocates %.1f allocs/op, budget %.0f — the hot path regressed",
					got, tc.budget)
			}
		})
	}
}

// TestArenaTrialAllocsBeatFresh asserts the arena's reason to exist: a
// recycled trial must allocate well under half of what a fresh-network trial
// does (the ISSUE's ≥50% target, measured at the single-trial level).
func TestArenaTrialAllocsBeatFresh(t *testing.T) {
	spec := ring.Spec{N: 16, Protocol: alead.New()}
	seed := int64(0)
	fresh := testing.AllocsPerRun(100, func() {
		spec.Seed = seed
		seed++
		if _, err := ring.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	recycled := trialAllocs(t, spec, 100)
	if recycled > fresh/2 {
		t.Errorf("arena trial allocates %.1f allocs/op vs %.1f fresh — less than a 2× reduction", recycled, fresh)
	}
}
