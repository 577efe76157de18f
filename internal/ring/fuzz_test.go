package ring

import (
	"encoding/json"
	"testing"
)

// FuzzRingArith checks the residue-alphabet invariants every ring protocol
// builds on: Mod lands in [0, n) for any input (including negatives and the
// int64 extremes), LeaderFromSum lands in [1..n], and SumForLeader is its
// exact inverse.
func FuzzRingArith(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(-1), uint16(1))
	f.Add(int64(1<<62), uint16(1023))
	f.Add(int64(-1)<<62, uint16(7))
	f.Add(int64(9223372036854775807), uint16(65535))
	f.Add(int64(-9223372036854775808), uint16(2))
	f.Fuzz(func(t *testing.T, v int64, rawN uint16) {
		n := int(rawN)%4096 + 2

		m := Mod(v, n)
		if m < 0 || m >= int64(n) {
			t.Fatalf("Mod(%d, %d) = %d outside [0, %d)", v, n, m, n)
		}
		if again := Mod(m, n); again != m {
			t.Fatalf("Mod is not idempotent: Mod(%d, %d) = %d", m, n, again)
		}
		// Reduction agrees with pre-reducing by the native remainder.
		if other := Mod(v%int64(n), n); other != m {
			t.Fatalf("Mod(%d, %d) = %d but Mod(%d %% n, n) = %d", v, n, m, v, other)
		}
		// Shifting by one modulus does not change the residue (stay away
		// from the int64 edges to avoid overflow in the test itself).
		if v < 1<<62-int64(n) && v > -(1<<62)+int64(n) {
			if shifted := Mod(v+int64(n), n); shifted != m {
				t.Fatalf("Mod(%d+n, %d) = %d, want %d", v, n, shifted, m)
			}
		}

		leader := LeaderFromSum(v, n)
		if leader < 1 || leader > int64(n) {
			t.Fatalf("LeaderFromSum(%d, %d) = %d outside [1, %d]", v, n, leader, n)
		}
		if LeaderFromSum(SumForLeader(leader, n), n) != leader {
			t.Fatalf("SumForLeader is not inverse at leader %d, n=%d", leader, n)
		}
		if SumForLeader(leader, n) != m {
			t.Fatalf("SumForLeader(LeaderFromSum(%d)) = %d, want the residue %d", v, SumForLeader(leader, n), m)
		}
	})
}

// FuzzDistributionValidate decodes arbitrary bytes as a chunk shard, the
// way a fleet coordinator decodes a worker's result. Whatever Validate
// accepts must merge into an n-distribution without panicking and leave
// one whose outcome counts sum to exactly the shard's trials.
func FuzzDistributionValidate(f *testing.F) {
	valid, _ := json.Marshal(randomDistribution(8, 3, 40))
	f.Add(valid, uint8(6), uint16(40))
	f.Add([]byte(`{}`), uint8(6), uint16(40))
	f.Add([]byte(`{"N":8,"Trials":0,"Counts":[0,0,0,0,0,0,0,0,0]}`), uint8(6), uint16(40))
	f.Add([]byte(`{"N":8,"Trials":40,"Counts":[0,40]}`), uint8(6), uint16(40))
	f.Add([]byte(`{"N":8,"Trials":40,"Counts":[0,-1,41,0,0,0,0,0,0]}`), uint8(6), uint16(40))
	f.Fuzz(func(t *testing.T, data []byte, rawN uint8, rawTrials uint16) {
		n, trials := int(rawN)%64+2, int(rawTrials)
		var shard Distribution
		if json.Unmarshal(data, &shard) != nil || shard.Validate(n, trials) != nil {
			return
		}
		d := NewDistribution(n)
		if err := d.Merge(&shard); err != nil {
			t.Fatalf("accepted shard does not merge: %v", err)
		}
		sum := d.Failures()
		for _, c := range d.Counts {
			sum += c
		}
		if d.Trials != trials || sum != trials {
			t.Fatalf("merged %d trials with outcome counts summing to %d, want %d", d.Trials, sum, trials)
		}
	})
}
