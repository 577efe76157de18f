package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestArenaPoolRecyclesAcrossRuns(t *testing.T) {
	pool := NewArenaPool()
	job := mixJob(41)
	sink := tallySink()
	const workers = 3
	for batch := 0; batch < 20; batch++ {
		if _, err := RunBatch(context.Background(), 200, job.chunks(), sink,
			Options[*tally]{Workers: workers, Arenas: pool}); err != nil {
			t.Fatal(err)
		}
	}
	// Every batch returns its arenas, so the population plateaus at the
	// peak concurrent worker count instead of growing per batch.
	if got := pool.Allocated(); got > workers {
		t.Fatalf("pool allocated %d arenas over 20 batches on %d workers", got, workers)
	}
	if got := pool.Idle(); got != pool.Allocated() {
		t.Fatalf("idle %d != allocated %d after all batches returned", got, pool.Allocated())
	}
}

func TestArenaPoolGetPutExplicit(t *testing.T) {
	pool := NewArenaPool()
	a := pool.Get()
	if a == nil {
		t.Fatal("Get returned nil arena")
	}
	if pool.Allocated() != 1 || pool.Idle() != 0 {
		t.Fatalf("allocated=%d idle=%d after one Get", pool.Allocated(), pool.Idle())
	}
	pool.Put(a)
	if pool.Idle() != 1 {
		t.Fatalf("idle=%d after Put", pool.Idle())
	}
	if got := pool.Get(); got != a {
		t.Fatal("Get did not return the recycled arena")
	}
	pool.Put(nil) // no-op
	if pool.Idle() != 0 {
		t.Fatal("Put(nil) changed the free list")
	}
}

func TestNilArenaPoolFallsBack(t *testing.T) {
	var pool *ArenaPool
	if pool.Get() == nil {
		t.Fatal("nil pool Get must construct a fresh arena")
	}
	pool.Put(sim.NewArena()) // must not panic
	if pool.Allocated() != 0 || pool.Idle() != 0 {
		t.Fatal("nil pool reports nonzero sizes")
	}
}

func TestPooledRunMatchesUnpooled(t *testing.T) {
	job := mixJob(97)
	sink := tallySink()
	want, err := RunBatch(context.Background(), 1000, job.chunks(), sink, Options[*tally]{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewArenaPool()
	for round := 0; round < 3; round++ {
		got, err := RunBatch(context.Background(), 1000, job.chunks(), sink,
			Options[*tally]{Workers: 4, Arenas: pool})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled run differs from unpooled", round)
		}
	}
}

func TestObservePrefixesAreDeterministicAndComplete(t *testing.T) {
	job := mixJob(7)
	sink := tallySink()
	const trials = 500

	type point struct {
		trials   int
		messages int
	}
	capture := func(workers int) []point {
		var pts []point
		_, err := RunBatch(context.Background(), trials, job.chunks(), sink, Options[*tally]{
			Workers: workers,
			Observe: func(prefix *tally, n int) {
				pts = append(pts, point{trials: n, messages: prefix.messages})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	want := capture(1)
	if len(want) == 0 {
		t.Fatal("no observations")
	}
	if last := want[len(want)-1]; last.trials != trials {
		t.Fatalf("final observation covers %d trials, want %d", last.trials, trials)
	}
	prev := 0
	for _, p := range want {
		if p.trials <= prev {
			t.Fatalf("observation trials not strictly increasing: %d after %d", p.trials, prev)
		}
		prev = p.trials
	}
	for _, workers := range []int{2, 4, 7} {
		if got := capture(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("observation sequence at %d workers differs from sequential", workers)
		}
	}
}

func TestObserveComposesWithStop(t *testing.T) {
	job := mixJob(21)
	sink := tallySink()
	var observed []int
	stopAt := 0
	got, err := RunBatch(context.Background(), 10000, job.chunks(), sink, Options[*tally]{
		Workers: 4,
		Observe: func(_ *tally, n int) { observed = append(observed, n) },
		Stop: func(_ *tally, n int) bool {
			if n >= 160 {
				stopAt = n
				return true
			}
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || stopAt == 0 {
		t.Fatal("stop rule never fired")
	}
	if last := observed[len(observed)-1]; last != stopAt {
		t.Fatalf("last observation %d != stopping point %d", last, stopAt)
	}
}
