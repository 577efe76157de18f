package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing summary may report beside its
// median, from the highest down.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// nearestRank returns the q-quantile of sorted by the nearest-rank method:
// the smallest sample with at least ⌈q·n⌉ samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// timing is a latency population summarized as its median plus the
// highest ladder percentile that has at least minBeyond samples beyond it.
type timing struct {
	Count int `json:"count"`
	// Failed counts failed operations among the samples; a percentile
	// that lands on one reads -1.
	Failed int     `json:"failed"`
	P50    float64 `json:"p50"`
	// TailQ is 0 when the population is too small for any tail.
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail"`
}

// summarize builds a timing. Failed operations enter samples as +Inf, so
// they miss every latency limit.
func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{Count: len(s), P50: finite(nearestRank(s, 0.5))}
	for _, x := range s {
		if math.IsInf(x, 1) {
			t.Failed++
		}
	}
	for _, q := range tailLadder {
		rank := int(math.Ceil(q * float64(len(s))))
		if len(s)-rank >= minBeyond {
			t.TailQ, t.Tail = q, finite(s[rank-1])
			break
		}
	}
	return t
}

// median is the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// finite replaces non-finite values, which JSON cannot carry, by -1.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return -1
	}
	return x
}
