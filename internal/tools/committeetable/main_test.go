package main

import "testing"

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
