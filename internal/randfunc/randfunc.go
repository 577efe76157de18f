// Package randfunc provides the random function family f that
// PhaseAsyncLead applies to the shared data and validation values
// (Section 6). The paper uses a non-constructive uniformly random function
// f : [n]^n × [m]^{n−l} → [n], following Alon–Naor; a real implementation
// must substitute a concrete keyed function.
//
// Func is that substitute: every coordinate (position, value, domain) is
// mixed with a 64-bit key through a SplitMix64-style avalanche, the mixes are
// XOR-combined, and a finalizer maps the accumulator to [1..n]. Two
// properties matter for the reproduction:
//
//   - Black-box randomness: none of the paper's deviations exploits
//     algebraic structure in f — adversaries either rush all of f's inputs
//     or brute-force a few free coordinates, both of which treat f as an
//     oracle. Statistical tests in this package check uniformity and
//     coordinate sensitivity.
//   - O(1) incremental re-evaluation: changing one coordinate updates the
//     accumulator with two XORs, which makes the PhaseRushing attack's
//     coordinate search and large-n benchmarks feasible. A strictly
//     sequential variant (StrictFunc) without this shortcut is provided for
//     cross-checks.
//
// A coordinate mix is Mix64(key^tag, Mix64(pos, v)), and each Mix64 runs the
// SplitMix64 finalizer twice: once on its first argument alone, once on the
// combination. Three of those first-argument halves do not depend on v, so
// New computes them once per function: the data key Mix64Key(key^tagData),
// the validation key Mix64Key(key^tagVal), and Mix64Key(pos) for every
// position in [0, n]. CoordData and CoordVal then finish the two mixes with
// Mix64Keyed, two finalizer runs instead of four. Mix64Keyed(Mix64Key(a), b)
// is Mix64(a, b) by definition, so f's output bits are exactly those of the
// written-out formula; positions outside the table take Mix64Key directly.
package randfunc

import (
	"errors"

	"repro/internal/sim"
)

// Domain tags separate data coordinates from validation coordinates, so the
// pair (position, value) never collides across the two input blocks.
const (
	tagData uint64 = 0x64617461 // "data"
	tagVal  uint64 = 0x76616c73 // "vals"
)

// Func is a keyed member of the random function family. It is immutable and
// safe for concurrent use.
type Func struct {
	seed    uint64
	n       int
	dataKey uint64   // Mix64Key(seed ^ tagData)
	valKey  uint64   // Mix64Key(seed ^ tagVal)
	posKey  []uint64 // posKey[pos] = Mix64Key(pos) for pos in [0, n]
}

// New returns the family member selected by seed, with outputs in [1..n].
func New(seed int64, n int) (*Func, error) {
	if n < 1 {
		return nil, errors.New("randfunc: need n ≥ 1")
	}
	key := sim.Mix64(uint64(seed), 0xf00d)
	f := &Func{
		seed:    key,
		n:       n,
		dataKey: sim.Mix64Key(key ^ tagData),
		valKey:  sim.Mix64Key(key ^ tagVal),
		posKey:  make([]uint64, n+1),
	}
	for pos := range f.posKey {
		f.posKey[pos] = sim.Mix64Key(uint64(pos))
	}
	return f, nil
}

// N returns the output range size.
func (f *Func) N() int { return f.n }

// CoordData mixes the data coordinate at 1-based position pos with value v.
func (f *Func) CoordData(pos int, v int64) uint64 {
	return sim.Mix64Keyed(f.dataKey, sim.Mix64Keyed(f.keyOf(pos), uint64(v)))
}

// CoordVal mixes the validation coordinate at 1-based position pos.
func (f *Func) CoordVal(pos int, v int64) uint64 {
	return sim.Mix64Keyed(f.valKey, sim.Mix64Keyed(f.keyOf(pos), uint64(v)))
}

// keyOf returns Mix64Key(pos), from the table when pos is in [0, n].
func (f *Func) keyOf(pos int) uint64 {
	if uint(pos) < uint(len(f.posKey)) {
		return f.posKey[pos]
	}
	return sim.Mix64Key(uint64(pos))
}

// Finalize maps an XOR-accumulator of coordinate mixes to a leader in [1..n].
func (f *Func) Finalize(acc uint64) int64 {
	return int64(sim.Mix64(acc, f.seed)%uint64(f.n)) + 1
}

// Eval computes f(data, vals): data are the n shared data values (d̂_1..d̂_n)
// and vals the first n−l validation values (v̂_1..v̂_{n−l}), both 0-indexed
// slices holding 1-based coordinates.
func (f *Func) Eval(data, vals []int64) int64 {
	var acc uint64
	for i, v := range data {
		acc ^= f.CoordData(i+1, v)
	}
	for i, v := range vals {
		acc ^= f.CoordVal(i+1, v)
	}
	return f.Finalize(acc)
}

// Accumulate XORs the coordinate mixes of both blocks, for callers that need
// the raw accumulator to search over free coordinates incrementally.
func (f *Func) Accumulate(data, vals []int64) uint64 {
	var acc uint64
	for i, v := range data {
		acc ^= f.CoordData(i+1, v)
	}
	for i, v := range vals {
		acc ^= f.CoordVal(i+1, v)
	}
	return acc
}

// StrictFunc is the sequential-chaining variant: coordinates are folded into
// a running hash in order, with no incremental shortcut. It exists to
// cross-check that nothing in the experiments depends on Func's XOR
// combination.
type StrictFunc struct {
	seed uint64
	n    int
}

// NewStrict returns the strict family member selected by seed.
func NewStrict(seed int64, n int) (*StrictFunc, error) {
	if n < 1 {
		return nil, errors.New("randfunc: need n ≥ 1")
	}
	return &StrictFunc{seed: sim.Mix64(uint64(seed), 0xbeef), n: n}, nil
}

// N returns the output range size.
func (f *StrictFunc) N() int { return f.n }

// Eval computes the strict function of the same input shape as Func.Eval.
func (f *StrictFunc) Eval(data, vals []int64) int64 {
	acc := f.seed
	for i, v := range data {
		acc = sim.Mix64(acc, sim.Mix64(tagData^uint64(i+1), uint64(v)))
	}
	for i, v := range vals {
		acc = sim.Mix64(acc, sim.Mix64(tagVal^uint64(i+1), uint64(v)))
	}
	return int64(acc%uint64(f.n)) + 1
}

// Evaluator is the shape shared by Func and StrictFunc.
type Evaluator interface {
	N() int
	Eval(data, vals []int64) int64
}

var (
	_ Evaluator = (*Func)(nil)
	_ Evaluator = (*StrictFunc)(nil)
)
