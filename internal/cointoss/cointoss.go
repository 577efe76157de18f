// Package cointoss implements the Section 8 equivalence between Fair Leader
// Election and Fair Coin Toss:
//
//   - FLE → coin: elect a leader, output its low bit. An ε-unbiased
//     election over an even number of processors yields a (½n·ε)-unbiased
//     coin (Theorem 8.1, first direction).
//   - coin → FLE: run log₂(n) independent coin tosses and elect the
//     processor indexed by the concatenated bits. With ε-unbiased coins the
//     resulting election is (½+ε)^{log₂ n}-unbiased (second direction).
//
// The coin→FLE direction inherits the paper's explicit assumption that
// independent coin-toss instances can be run; the harness realizes
// independence by running instances with independently derived seeds.
package cointoss

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Coin outcomes.
const (
	// TossFail marks a failed instance (the underlying election FAILed).
	TossFail = -1
)

// TossArena runs one coin-toss instance on a recycled per-worker
// simulation arena (nil falls back to fresh allocations with an identical
// result): elect with the given spec, output the leader's low bit (leaders
// 1..n map to 0,1,0,1,…). Returns TossFail if the election fails.
func TossArena(spec ring.Spec, arena *sim.Arena) (int, error) {
	res, err := ring.RunArena(spec, arena)
	if err != nil {
		return TossFail, err
	}
	if res.Failed {
		return TossFail, nil
	}
	return int((res.Output - 1) & 1), nil
}

// Tosser produces the b-th independent coin toss of a composite run, running
// the underlying election on the given arena (which may be nil). Trial
// batches call tossers (and the factories handed to ElectTrials) from
// multiple goroutines with per-worker arenas, so they must be safe for
// concurrent use — true of any tosser that, like ProtocolTosser, derives a
// per-instance seed and keeps all mutable state on the arena.
type Tosser func(instance int, arena *sim.Arena) (int, error)

// ProtocolTosser builds independent coin instances from a ring protocol:
// instance i runs on its own ring with an independently mixed seed.
func ProtocolTosser(n int, protocol ring.Protocol, baseSeed int64) Tosser {
	return func(instance int, arena *sim.Arena) (int, error) {
		seed := int64(sim.Mix64(uint64(baseSeed), uint64(instance)+0xc01f))
		return TossArena(ring.Spec{N: n, Protocol: protocol, Seed: seed}, arena)
	}
}

// Elect implements the coin→FLE reduction: log₂(n) independent tosses,
// concatenated MSB-first, elect leader index+1. n must be a power of two
// (the paper's simplifying assumption). A failed toss fails the election
// (leader 0, ok=false). The tosses run sequentially on the given arena
// (nil = fresh allocations per toss).
func Elect(n int, toss Tosser, arena *sim.Arena) (leader int64, ok bool, err error) {
	bits, err := log2(n)
	if err != nil {
		return 0, false, err
	}
	idx := int64(0)
	for b := 0; b < bits; b++ {
		bit, err := toss(b, arena)
		if err != nil {
			return 0, false, err
		}
		if bit == TossFail {
			return 0, false, nil
		}
		if bit != 0 && bit != 1 {
			return 0, false, fmt.Errorf("cointoss: toss %d returned %d", b, bit)
		}
		idx = idx<<1 | int64(bit)
	}
	return idx + 1, true, nil
}

func log2(n int) (int, error) {
	if n < 2 || n&(n-1) != 0 {
		return 0, fmt.Errorf("cointoss: n=%d is not a power of two ≥ 2", n)
	}
	bits := 0
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	return bits, nil
}

// CoinStats aggregates coin-toss outcomes.
type CoinStats struct {
	Zeros, Ones, Fails int
}

// add records one toss outcome; anything other than 0 or 1 (in particular
// TossFail) counts as a failure.
func (s *CoinStats) add(bit int) {
	switch bit {
	case 0:
		s.Zeros++
	case 1:
		s.Ones++
	default:
		s.Fails++
	}
}

// merge folds another shard into s.
func (s *CoinStats) merge(o *CoinStats) {
	s.Zeros += o.Zeros
	s.Ones += o.Ones
	s.Fails += o.Fails
}

// Options tunes a parallel batch of coin-toss or composite-election trials.
// The zero value uses every CPU.
type Options struct {
	// Workers is the engine worker count; 0 picks runtime.NumCPU().
	Workers int
}

// coinSink accumulates toss bits (smuggled through sim.Result.Output) into
// per-chunk CoinStats shards.
var coinSink = engine.Sink[*CoinStats]{
	New:   func() *CoinStats { return &CoinStats{} },
	Add:   func(s *CoinStats, res sim.Result) { s.add(int(res.Output)) },
	Merge: func(dst, src *CoinStats) { dst.merge(src) },
}

// TrialsOpts runs the tosser repeatedly (fresh instance index per trial)
// and aggregates. Tosses run in parallel on opts.Workers workers (0 means
// every CPU) — the tosser must be safe for concurrent use (ProtocolTosser
// and every tosser built from ring.Run are) — with results identical to a
// sequential loop. They run chunked (engine.RunBatch): each worker claims
// whole trial ranges, so the tosser's per-instance work amortizes its
// arena's recycled state.
func TrialsOpts(ctx context.Context, toss Tosser, trials int, opts Options) (CoinStats, error) {
	job := engine.ChunkFunc(func(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
		for t := start; t < end; t++ {
			bit, err := toss(t, arena)
			if err != nil {
				return t, err
			}
			add(sim.Result{Output: int64(bit)})
		}
		return 0, nil
	})
	s, err := engine.RunBatch(ctx, trials, job, coinSink,
		engine.Options[*CoinStats]{Workers: opts.Workers})
	if err != nil || s == nil {
		return CoinStats{}, err
	}
	return *s, nil
}

// Bias returns max(Pr[0], Pr[1]) − ½, the ε of the unbias definition.
func (s CoinStats) Bias() float64 {
	total := s.Zeros + s.Ones + s.Fails
	if total == 0 {
		return 0
	}
	p0 := float64(s.Zeros) / float64(total)
	p1 := float64(s.Ones) / float64(total)
	m := p0
	if p1 > m {
		m = p1
	}
	return m - 0.5
}

// CoinBiasBound is Theorem 8.1's first direction: an ε-unbiased election
// over n processors yields a coin with bias at most ½·n·ε.
func CoinBiasBound(n int, electionEpsilon float64) float64 {
	return 0.5 * float64(n) * electionEpsilon
}

// ElectionBiasBound is Theorem 8.1's second direction: log₂(n) independent
// ε-unbiased coins yield an election where no leader's probability exceeds
// (½+ε)^{log₂ n}.
func ElectionBiasBound(n int, coinEpsilon float64) (float64, error) {
	bits, err := log2(n)
	if err != nil {
		return 0, err
	}
	p := 1.0
	for i := 0; i < bits; i++ {
		p *= 0.5 + coinEpsilon
	}
	return p, nil
}

// ElectTrialsOpts runs the composite election repeatedly with per-trial
// derived tossers and aggregates a leader distribution. Elections run in
// parallel on opts.Workers workers (0 means every CPU).
func ElectTrialsOpts(ctx context.Context, n int, mkTosser func(trial int) Tosser, trials int, opts Options) (*ring.Distribution, error) {
	if mkTosser == nil {
		return nil, errors.New("cointoss: nil tosser factory")
	}
	job := engine.ChunkFunc(func(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
		for t := start; t < end; t++ {
			leader, ok, err := Elect(n, mkTosser(t), arena)
			if err != nil {
				return t, err
			}
			if !ok {
				add(sim.Result{Failed: true, Reason: sim.FailAbort})
				continue
			}
			add(sim.Result{Output: leader})
		}
		return 0, nil
	})
	return engine.RunBatch(ctx, trials, job, ring.DistSink(n),
		engine.Options[*ring.Distribution]{Workers: opts.Workers})
}
