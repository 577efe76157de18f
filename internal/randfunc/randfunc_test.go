package randfunc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestDeterminism(t *testing.T) {
	f1, err := New(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := New(7, 64)
	f3, _ := New(8, 64)
	data := []int64{1, 5, 3, 2}
	vals := []int64{9, 9}
	a, b, c := f1.Eval(data, vals), f2.Eval(data, vals), f3.Eval(data, vals)
	if a != b {
		t.Error("same seed, different outputs")
	}
	if a == c {
		// Not impossible, but rerun with more inputs to be sure.
		differ := false
		for x := int64(0); x < 32; x++ {
			if f1.Eval([]int64{x}, nil) != f3.Eval([]int64{x}, nil) {
				differ = true
				break
			}
		}
		if !differ {
			t.Error("different seeds define the same function")
		}
	}
}

func TestOutputRange(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		f, err := New(3, n)
		if err != nil {
			t.Fatal(err)
		}
		for x := int64(0); x < 50; x++ {
			out := f.Eval([]int64{x, x + 1}, []int64{x})
			if out < 1 || out > int64(n) {
				t.Fatalf("n=%d: output %d out of range", n, out)
			}
		}
	}
}

func TestUniformOverInputs(t *testing.T) {
	const n = 16
	f, err := New(11, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	data := make([]int64, 8)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16000; i++ {
		for j := range data {
			data[j] = rng.Int63n(n)
		}
		counts[f.Eval(data, nil)-1]++
	}
	if _, p, _ := stats.ChiSquareUniform(counts); p < 1e-4 {
		t.Errorf("outputs over random inputs far from uniform: p=%v", p)
	}
}

func TestCoordinateSensitivity(t *testing.T) {
	// Changing any single coordinate should change the output with
	// probability ≈ 1−1/n: the property the resilience argument needs.
	const n = 64
	f, err := New(13, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	changed, total := 0, 0
	for trial := 0; trial < 500; trial++ {
		data := make([]int64, 10)
		vals := make([]int64, 4)
		for j := range data {
			data[j] = rng.Int63n(n)
		}
		for j := range vals {
			vals[j] = rng.Int63n(2 * n * n)
		}
		before := f.Eval(data, vals)
		pos := rng.Intn(len(data))
		old := data[pos]
		for data[pos] == old {
			data[pos] = rng.Int63n(n)
		}
		if f.Eval(data, vals) != before {
			changed++
		}
		total++
	}
	rate := float64(changed) / float64(total)
	if rate < 0.9 {
		t.Errorf("single-coordinate change altered output only %.2f of the time", rate)
	}
}

func TestIncrementalMatchesEval(t *testing.T) {
	// Accumulate + Finalize with coordinate XOR updates must agree with a
	// full Eval: the attack search relies on this.
	const n = 32
	f, err := New(21, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]int64, 6)
		vals := make([]int64, 3)
		for j := range data {
			data[j] = rng.Int63n(n)
		}
		for j := range vals {
			vals[j] = rng.Int63n(100)
		}
		full := f.Eval(data, vals)
		acc := f.Accumulate(data, vals)
		if f.Finalize(acc) != full {
			return false
		}
		// Swap one data coordinate incrementally.
		pos := rng.Intn(len(data))
		newVal := rng.Int63n(n)
		acc2 := acc ^ f.CoordData(pos+1, data[pos]) ^ f.CoordData(pos+1, newVal)
		data[pos] = newVal
		return f.Finalize(acc2) == f.Eval(data, vals)
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestCoordinatesMatchMix64Formula pins Func's bits to the written-out
// formula, independently of its precomputed keys: a coordinate mix is
// Mix64(key^tag, Mix64(pos, v)) and the output is Mix64(acc, key) mod n + 1,
// with key = Mix64(seed, 0xf00d). Positions run over the whole table, both
// of its edges and past them; values are negative, in [0, n) and at or
// beyond PhaseAsyncLead's validation range 2n².
func TestCoordinatesMatchMix64Formula(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 20180516, math.MaxInt64} {
		for _, n := range []int{1, 2, 5, 16, 100} {
			f, err := New(seed, n)
			if err != nil {
				t.Fatal(err)
			}
			key := sim.Mix64(uint64(seed), 0xf00d)
			m := 2 * int64(n) * int64(n)
			values := []int64{math.MinInt64, -int64(n), -2, -1, m, m + 1, 3*m + 7, math.MaxInt64}
			for v := int64(0); v < int64(n); v++ {
				values = append(values, v)
			}
			for pos := -1; pos <= n+2; pos++ {
				for _, v := range values {
					inner := sim.Mix64(uint64(pos), uint64(v))
					if got, want := f.CoordData(pos, v), sim.Mix64(key^0x64617461, inner); got != want {
						t.Fatalf("seed=%d n=%d: CoordData(%d, %d) = %#x, want %#x", seed, n, pos, v, got, want)
					}
					if got, want := f.CoordVal(pos, v), sim.Mix64(key^0x76616c73, inner); got != want {
						t.Fatalf("seed=%d n=%d: CoordVal(%d, %d) = %#x, want %#x", seed, n, pos, v, got, want)
					}
				}
			}
			rng := rand.New(rand.NewSource(seed))
			accs := []uint64{0, 1, math.MaxUint64}
			for i := 0; i < 64; i++ {
				accs = append(accs, rng.Uint64())
			}
			for _, acc := range accs {
				if got, want := f.Finalize(acc), int64(sim.Mix64(acc, key)%uint64(n))+1; got != want {
					t.Fatalf("seed=%d n=%d: Finalize(%#x) = %d, want %d", seed, n, acc, got, want)
				}
			}
		}
	}
}

func TestStrictVariantBehaves(t *testing.T) {
	const n = 16
	f, err := NewStrict(11, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(6))
	data := make([]int64, 8)
	for i := 0; i < 16000; i++ {
		for j := range data {
			data[j] = rng.Int63n(n)
		}
		out := f.Eval(data, nil)
		if out < 1 || out > n {
			t.Fatalf("strict output %d out of range", out)
		}
		counts[out-1]++
	}
	if _, p, _ := stats.ChiSquareUniform(counts); p < 1e-4 {
		t.Errorf("strict outputs far from uniform: p=%v", p)
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewStrict(0, -1); err == nil {
		t.Error("n<0 accepted")
	}
}
