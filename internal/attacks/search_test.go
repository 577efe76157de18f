package attacks

import (
	"fmt"
	"testing"

	"repro/internal/randfunc"
)

// bruteForceSearch is the reference for searchCoordinates: it reads every t
// below the limit as base-n digits, labels[0] least significant, folds the
// whole assignment into the accumulator, and returns the first t that
// finalizes to target.
func bruteForceSearch(f *randfunc.Func, acc uint64, labels []int, target int64, cap int) ([]int64, bool) {
	n := f.N()
	if len(labels) == 0 {
		return nil, false
	}
	limit := cap
	if len(labels) == 1 {
		limit = n
	}
	for t := 0; t < limit; t++ {
		values := make([]int64, len(labels))
		trial, rem := acc, t
		for i, lab := range labels {
			values[i] = int64(rem % n)
			trial ^= f.CoordData(lab, values[i])
			rem /= n
		}
		if f.Finalize(trial) == target {
			return values, true
		}
	}
	return nil, false
}

// TestSearchCoordinatesMatchesBruteForce checks that the block scan returns
// exactly the reference's assignment and ok for one, two and three free
// labels: over every target (and two outside [1, n]), caps below, at and
// past a block boundary, caps that are no multiple of n, and caps beyond
// n^c, where the digits wrap around.
func TestSearchCoordinatesMatchesBruteForce(t *testing.T) {
	hits, misses := 0, 0
	for _, n := range []int{2, 3, 5, 8} {
		f, err := randfunc.New(int64(n)+11, n)
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c <= 3; c++ {
			labels := make([]int, c)
			for i := range labels {
				labels[i] = (n-1-2*i+2*n)%n + 1
			}
			pow := 1
			for i := 0; i < c; i++ {
				pow *= n
			}
			for _, cap := range []int{0, 1, n - 1, n, n + 1, 2*n + 1, pow, pow + n + 1, 64 * n} {
				for _, acc := range []uint64{0, 0x9e3779b97f4a7c15, uint64(cap)*0x632be59bd9b4e019 + uint64(c)} {
					for target := int64(0); target <= int64(n)+1; target++ {
						got, ok := searchCoordinates(f, acc, labels, target, cap)
						want, wantOK := bruteForceSearch(f, acc, labels, target, cap)
						if ok != wantOK || fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("n=%d labels=%v cap=%d acc=%#x target=%d: got %v, %v; brute force %v, %v",
								n, labels, cap, acc, target, got, ok, want, wantOK)
						}
						if ok {
							hits++
						} else {
							misses++
						}
					}
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("cases exercised %d hits and %d misses; want both", hits, misses)
	}
	f, err := randfunc.New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := searchCoordinates(f, 0, nil, 1, 64); ok || got != nil {
		t.Errorf("no free labels: got %v, %v; want nil, false", got, ok)
	}
}

// searchSink keeps the benchmarked search's result alive.
var searchSink []int64

// BenchmarkSearchCoordinates times the PhaseRushing steering search at
// n = 100 with one, two and three free labels and the default 64·n cap,
// over varying accumulators and targets.
func BenchmarkSearchCoordinates(b *testing.B) {
	const n = 100
	f, err := randfunc.New(1, n)
	if err != nil {
		b.Fatal(err)
	}
	for c := 1; c <= 3; c++ {
		labels := []int{7, 42, 99}[:c]
		b.Run(fmt.Sprintf("free=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				searchSink, _ = searchCoordinates(f, uint64(i)*0x9e3779b97f4a7c15, labels, int64(i%n)+1, 64*n)
			}
		})
	}
}
