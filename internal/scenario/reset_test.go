package scenario

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestArenaResetBitIdenticalAcrossRingScenarios is the Network.Reset
// property test: for every ring-topology scenario and a spread of seeds, an
// execution on a single arena shared across the whole sweep — so its
// recycled network is reset from every protocol, deviation and size in the
// catalog, in sequence — must be bit-identical to an execution on a freshly
// constructed network. This is the contract that lets the trial engine hand
// one arena to a worker for an entire batch.
func TestArenaResetBitIdenticalAcrossRingScenarios(t *testing.T) {
	arena := sim.NewArena()
	ran := 0
	for _, s := range All() {
		if s.proto == nil {
			continue
		}
		p := s.params(Opts{})
		for seed := int64(1); seed <= 5; seed++ {
			fresh, err := s.single(seed, nil, p, nil)
			if err != nil {
				t.Fatalf("%s seed=%d (fresh): %v", s.Name, seed, err)
			}
			reused, err := s.single(seed, nil, p, arena)
			if err != nil {
				t.Fatalf("%s seed=%d (arena): %v", s.Name, seed, err)
			}
			if !reflect.DeepEqual(reused.Clone(), fresh.Clone()) {
				t.Fatalf("%s seed=%d: arena execution differs from fresh execution\nfresh: %+v\narena: %+v",
					s.Name, seed, fresh, reused)
			}
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no ring scenarios exercised")
	}
	t.Logf("verified %d reset-vs-fresh execution pairs", ran)
}
