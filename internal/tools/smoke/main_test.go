package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// serveBin and loadBin are the fleserve and fleload binaries the phases
// drive. TestMain builds them once per test binary, and not at all under
// -short, where no phase boots a daemon.
var serveBin, loadBin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	if !testing.Short() {
		dir, err := os.MkdirTemp("", "smoke-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		serveBin, loadBin = filepath.Join(dir, "fleserve"), filepath.Join(dir, "fleload")
		for bin, pkg := range map[string]string{serveBin: "repro/cmd/fleserve", loadBin: "repro/cmd/fleload"} {
			if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "build %s: %v\n%s", pkg, err, out)
				return 1
			}
		}
	}
	return m.Run()
}

// TestPhases runs every phase against the real binaries, as the make
// targets do. The dsl phase registers its generated specs in this process,
// so it runs after the phases that compare the daemon's catalog with the
// in-process registry, and a second pass in one process (-count=2) fails.
func TestPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemon processes")
	}
	profile := filepath.Join(t.TempDir(), "profiles", "e5.cpu.pprof")
	for _, tc := range []struct {
		phase string
		args  []string
		wrote string // a file the phase must write
	}{
		{"service", nil, ""},
		{"certify", nil, ""},
		{"fleet", []string{"-load", loadBin}, ""},
		{"dsl", nil, ""},
		{"profile", []string{"-out", profile, "-seconds", "1"}, profile},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			if err := run(append([]string{"-phase", tc.phase, "-bin", serveBin}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			if tc.wrote != "" {
				if _, err := os.Stat(tc.wrote); err != nil {
					t.Errorf("phase wrote no %s: %v", tc.wrote, err)
				}
			}
		})
	}
}

// TestBadFlag checks that an unknown flag fails before any phase starts.
func TestBadFlag(t *testing.T) {
	for phase := range phases {
		t.Run(phase, func(t *testing.T) {
			if err := run([]string{"-phase", phase, "-no-such-flag"}); err == nil {
				t.Fatal("want flag error")
			}
		})
	}
}

func TestUnknownPhase(t *testing.T) {
	for _, args := range [][]string{nil, {"-phase", "nope"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%q): want unknown-phase error", args)
		}
	}
}

func TestMissingBinary(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent")
	for phase := range phases {
		t.Run(phase, func(t *testing.T) {
			if err := run([]string{"-phase", phase, "-bin", absent, "-load", absent}); err == nil {
				t.Fatal("want start error for a missing binary")
			}
		})
	}
}

// TestPickDistinct checks both batches the phases pick: the count is
// reached, no scenario repeats, and sizes respect the cap.
func TestPickDistinct(t *testing.T) {
	for _, tc := range []struct {
		count, trials int
		seedBase      int64
		maxN          int
	}{
		{serviceDistinct, serviceTrials, 1000, 0},
		{certDistinct, certTrials, 2000, certMaxN},
	} {
		reqs := pickDistinct(tc.count, tc.trials, tc.seedBase, tc.maxN)
		if len(reqs) != tc.count {
			t.Errorf("picked %d scenarios, want %d", len(reqs), tc.count)
		}
		seen := map[string]bool{}
		for _, r := range reqs {
			if seen[r.Scenario] {
				t.Errorf("scenario %s picked twice", r.Scenario)
			}
			seen[r.Scenario] = true
			if tc.maxN > 0 && r.N > tc.maxN {
				t.Errorf("%s sized n=%d, above the cap %d", r.Scenario, r.N, tc.maxN)
			}
			if r.Trials != tc.trials {
				t.Errorf("%s given %d trials, want %d", r.Scenario, r.Trials, tc.trials)
			}
		}
	}
}
