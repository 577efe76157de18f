package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestBatch1kRoundsToTheMillisecond(t *testing.T) {
	for _, tc := range []struct {
		perTrialMS float64
		want       string
	}{
		{0.03, "30ms"},
		{0.59, "590ms"},
		{5.21, "5.21s"},
		{65.31, "1m5.31s"},
		{0.0004, "0s"},
	} {
		if got := batch1k(tc.perTrialMS).String(); got != tc.want {
			t.Errorf("batch1k(%v) = %s, want %s", tc.perTrialMS, got, tc.want)
		}
	}
}

// TestFlatTrialsWholeLaneBlocks checks that -flat-trials must time whole
// lane blocks: anything else is refused before a trial runs, while a
// multiple of the lane width runs.
func TestFlatTrialsWholeLaneBlocks(t *testing.T) {
	for _, v := range []string{"4", "0", "-16", "17", "24"} {
		err := run([]string{"-flat-trials", v})
		if err == nil || !strings.Contains(err.Error(), "-flat-trials") {
			t.Errorf("-flat-trials %s: err %v, want a -flat-trials error", v, err)
		}
	}
	if err := run([]string{"-flat-trials", "32", "-sizes", "4", "-trials", "1", "-flat-max", "4", "-workers", "1"}); err != nil {
		t.Errorf("-flat-trials 32: %v", err)
	}
}

// TestFlatProjectionScalesOneMeasurement checks the n² projection above
// -flat-max: the size -flat-max is measured once, whether or not it has a
// row of its own, and every projected row is that bill times (n/flat-max)².
func TestFlatProjectionScalesOneMeasurement(t *testing.T) {
	var measured []int
	f := &flatBills{max: 10000, measure: func(n int) (flatBill, error) {
		measured = append(measured, n)
		return flatBill{msgs: n * n, ms: 213.36}, nil
	}}
	for _, tc := range []struct {
		n         int
		msgs      int
		ms        float64
		projected bool
	}{
		{1000, 1000000, 213.36, false},
		{50000, 2500000000, 5334, true},
		{10000, 100000000, 213.36, false},
		{20000, 400000000, 853.44, true},
	} {
		b, projected, err := f.at(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if b.msgs != tc.msgs || math.Abs(b.ms-tc.ms) > 1e-9 || projected != tc.projected {
			t.Errorf("n=%d: %+v projected=%v, want {msgs:%d ms:%v} projected=%v",
				tc.n, b, projected, tc.msgs, tc.ms, tc.projected)
		}
	}
	if want := []int{1000, 10000}; !slices.Equal(measured, want) {
		t.Errorf("measured sizes %v, want %v: -flat-max timed once", measured, want)
	}
}
