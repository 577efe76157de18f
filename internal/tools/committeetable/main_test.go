package main

import (
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
