package scenario

import (
	"context"
	"testing"
)

// runRecovered is RunOpts with a panic reported as a test failure, so a run
// that crashes fails the test instead of the test binary.
func runRecovered(t *testing.T, s Scenario, seed int64, o Opts) (*Outcome, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s %+v: RunOpts panicked: %v", s.Name, o, r)
		}
	}()
	return s.RunOpts(context.Background(), seed, o)
}

// TestRunRejectsOutOfRangeTarget pins the target check every run path
// shares: on every registered attack scenario, a target that is not a
// leader of the resolved ring (n+1, and −1) is an error from RunOpts and
// RunShard alike, never a run that summarizes a leader that cannot exist.
func TestRunRejectsOutOfRangeTarget(t *testing.T) {
	checked := 0
	for _, s := range All() {
		if s.Attack == "" {
			continue
		}
		checked++
		for _, target := range []int64{int64(s.N) + 1, -1} {
			o := Opts{Trials: 1, Workers: 1, Target: target}
			if out, err := runRecovered(t, s, 1, o); err == nil || out != nil {
				t.Errorf("%s target=%d: RunOpts returned %v, %v; want an error", s.Name, target, out, err)
			}
			if _, err := s.RunShard(context.Background(), 1, o, 0, 1); err == nil {
				t.Errorf("%s target=%d: RunShard accepted the target", s.Name, target)
			}
			if err := s.Check(o); err == nil {
				t.Errorf("%s target=%d: Check accepted the target", s.Name, target)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no attack scenarios registered")
	}
}

// FuzzScenarioOverrides runs a registered scenario, picked by index, under
// arbitrary overrides: n is 0 (the default) or MinN..MinN+15, trials 1–4,
// and K and Target are arbitrary. Sizes are clamped only to bound the run
// time; the target never is. RunOpts must return an outcome or an error,
// never panic, and an outcome's target rate is a rate.
func FuzzScenarioOverrides(f *testing.F) {
	all := All()
	f.Add(uint16(0), uint8(0), uint8(0), 0, int64(0))
	f.Add(uint16(1), uint8(3), uint8(1), 1, int64(2))
	f.Add(uint16(len(all)-1), uint8(0), uint8(0), 0, int64(99))
	f.Add(uint16(len(all)/2), uint8(5), uint8(2), -1, int64(-3))
	f.Fuzz(func(t *testing.T, pick uint16, size, trials uint8, k int, target int64) {
		s := all[int(pick)%len(all)]
		o := Opts{Trials: 1 + int(trials%4), Workers: 1, K: k, Target: target}
		if size %= 17; size > 0 {
			o.N = s.MinN + int(size) - 1
		}
		out, err := runRecovered(t, s, int64(pick), o)
		if err != nil {
			return
		}
		if out == nil {
			t.Fatalf("%s %+v: no outcome and no error", s.Name, o)
		}
		if out.TargetRate < 0 || out.TargetRate > 1 {
			t.Fatalf("%s %+v: target rate %v outside [0, 1]", s.Name, o, out.TargetRate)
		}
	})
}
