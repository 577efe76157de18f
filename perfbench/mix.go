package main

import "repro/internal/sim"

// mixClass maps request index i onto a weighted mix deterministically: the
// weights tile the index space in blocks of sum(weights), class c taking
// weights[c] consecutive slots per block, so every block carries the exact
// proportions.
func mixClass(i int, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	pos := i % total
	for c, w := range weights {
		if pos < w {
			return c
		}
		pos -= w
	}
	panic("mixClass: weights must be non-negative with a positive sum")
}

// derive mixes a workload seed with tags into the seed of one input, so
// every input is a pure function of --seed.
func derive(seed int64, tags ...uint64) int64 {
	h := uint64(seed)
	for _, t := range tags {
		h = sim.Mix64(h, t)
	}
	return int64(h >> 1) // non-negative: job seeds travel as JSON numbers
}
