package sim

// golden is the SplitMix64 increment (the 64-bit golden ratio). Stream
// counters advance the underlying state by this constant per draw, exactly
// as a sequentially-stepped SplitMix64 generator would.
const golden = 0x9e3779b97f4a7c15

// splitMix64 is the SplitMix64 finalizer, a high-quality 64-bit mixing
// function. It is both the seed-derivation primitive (via Mix64) and the
// output function of Stream: draw i of a stream with key k is
// splitMix64(k + i·golden), a pure function of (key, counter).
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix64Offset separates Mix64's second argument from its keyed first one.
const mix64Offset = 0x632be59bd9b4e019

// Mix64 combines two 64-bit values into one with strong avalanche. It is the
// key-derivation primitive shared by the simulator and the random-function
// substrate. It spells both halves out instead of calling Mix64Key and
// Mix64Keyed: the nested calls would raise its inlining cost enough to push
// NewStream past the inliner's budget.
func Mix64(a, b uint64) uint64 {
	return splitMix64(splitMix64(a) ^ (b + mix64Offset))
}

// Mix64Key is the half of Mix64 that depends on its first argument alone,
// for callers that mix many values under one key: Mix64(a, b) ==
// Mix64Keyed(Mix64Key(a), b) for every a and b.
func Mix64Key(a uint64) uint64 { return splitMix64(a) }

// Mix64Keyed finishes Mix64 from a key precomputed by Mix64Key.
func Mix64Keyed(key, b uint64) uint64 { return splitMix64(key ^ (b + mix64Offset)) }

// streamKey is the single copy of the processor-stream derivation recipe,
// shared by DeriveRand (fresh construction) and Context.Reseed (arena
// recycling) so the two can never drift apart. It is part of the sim-v2
// determinism contract: every value a processor ever draws is
// splitMix64(streamKey(seed, id) + ctr·golden) for some counter ctr ≥ 1.
func streamKey(seed int64, id ProcID) uint64 {
	return Mix64(uint64(seed), uint64(id))
}

// Stream is a counter-based splittable PRNG in the SplitMix64 family: draw
// number i is splitMix64(key + i·golden), so every value is a pure function
// of (key, counter) with no heap state and O(1) reseeding. Distinct keys
// (derived via Mix64) yield decorrelated streams; within a stream the
// generator is exactly sequential SplitMix64, which passes BigCrush.
//
// The counter wraps modulo 2⁶⁴: after 2⁶⁴ draws the stream repeats from its
// first value. No simulation here draws more than a few thousand values per
// stream, so the wrap is of documentation interest only (see
// TestStreamCounterWrap).
//
// The zero Stream is a valid generator for key 0; construct real streams
// with NewStream so keys go through the Mix64 derivation.
type Stream struct {
	key uint64
	ctr uint64
}

// NewStream returns the processor-randomness stream for the given trial seed
// and processor id. Equivalent streams compare equal: two Streams with the
// same (seed, id) at the same position are identical values.
func NewStream(seed int64, id ProcID) Stream {
	return Stream{key: streamKey(seed, id)}
}

// DeriveRand returns a deterministic PRNG for the given processor in the
// given trial. Distinct (seed, id) pairs yield decorrelated streams.
//
// It is the pointer-returning form of NewStream, kept for call sites that
// store the generator behind an interface.
func DeriveRand(seed int64, id ProcID) *Stream {
	s := NewStream(seed, id)
	return &s
}

// At returns draw number i (1-based, matching the i-th Uint64 call on a
// fresh stream) without consuming stream state. It is the pure random-access
// form of the generator, used by the golden-vector tests to pin the stream
// definition across platforms.
func (s *Stream) At(i uint64) uint64 {
	return splitMix64(s.key + (i-1)*golden)
}

// Uint64 returns the next 64-bit draw.
func (s *Stream) Uint64() uint64 {
	v := splitMix64(s.key + s.ctr*golden)
	s.ctr++
	return v
}

// Int63 returns a uniform value in [0, 2⁶³).
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Int63n returns a uniform value in [0, n). It panics if n ≤ 0. Rejection
// sampling keeps the distribution exactly uniform for every n.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return s.Int63() & (n - 1)
	}
	max := int64(uint64(1)<<63 - 1 - (uint64(1)<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn returns a uniform value in [0, n) as an int. It panics if n ≤ 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	return int(s.Int63n(int64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 random bits of mantissa.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
