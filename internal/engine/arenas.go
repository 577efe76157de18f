package engine

import (
	"sync"

	"repro/internal/sim"
)

// ArenaPool hands engine workers recycled sim.Arena workspaces across
// RunBatch calls. Without a pool, every RunBatch constructs one fresh arena
// per worker and drops them all when the batch ends — fine for a one-shot
// CLI, wasteful for a resident service that runs thousands of batches: each
// new batch rebuilds networks, schedulers, and scratch buffers the previous
// batch just warmed.
// Sharing one pool across batches makes arena reuse span jobs, not just the
// trials of one job.
//
// The pool is safe for concurrent use. It is an explicit free list rather
// than a sync.Pool so reuse is observable (Allocated) and never discarded by
// GC pressure: the population is bounded by the peak number of concurrent
// workers, which is small.
//
// A nil *ArenaPool is valid and means "no pooling": Get falls back to
// sim.NewArena and Put is a no-op, so the zero engine.Options behaviour is
// unchanged.
type ArenaPool struct {
	mu        sync.Mutex
	free      []*sim.Arena
	allocated int
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Get returns a recycled arena, constructing a fresh one only when the free
// list is empty. Arena-run executions are bit-for-bit identical to fresh
// ones (see sim.Arena), so results never depend on which arena a worker got.
func (p *ArenaPool) Get() *sim.Arena {
	if p == nil {
		return sim.NewArena()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return a
	}
	p.allocated++
	return sim.NewArena()
}

// Put returns an arena to the free list. The caller must not use the arena
// afterwards.
func (p *ArenaPool) Put(a *sim.Arena) {
	if p == nil || a == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, a)
}

// Allocated reports how many arenas the pool has ever constructed — the
// peak number of workers that held one simultaneously. A service running
// batch after batch on W workers stays at W forever; that plateau is what
// the persistent-arena tests assert.
func (p *ArenaPool) Allocated() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocated
}

// Idle reports how many arenas currently sit on the free list.
func (p *ArenaPool) Idle() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
