package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

// TestRunAgainstLiveDaemon drives a small mixed batch at a coordinator
// daemon and checks the report's arithmetic: every request accounted for,
// quantiles present for every exercised class, and the daemon's own stats
// embedded. Cached replays, which the submit answers already done, must
// open no watch stream.
func TestRunAgainstLiveDaemon(t *testing.T) {
	srv, err := service.New(service.Config{
		Role: service.RoleCoordinator, FleetChunk: 200, Parallel: 2, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		watches = map[string]int{} // job id → ?watch=1 requests
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, ok := strings.CutPrefix(r.URL.Path, "/jobs/"); ok && r.URL.Query().Get("watch") != "" {
			mu.Lock()
			watches[id]++
			mu.Unlock()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	outFile := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	err = run(context.Background(), []string{
		"-target", ts.URL,
		"-requests", "20",
		"-rate", "200",
		"-mix", "5:2:1:2",
		"-trials", "500",
		"-committee-n", "256",
		"-out", outFile,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}

	raw, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("report records %d errors", rep.Errors)
	}
	total := 0
	for _, c := range rep.PerClassCounts {
		total += c
	}
	if total != 20 {
		t.Fatalf("per-class counts sum to %d, want 20", total)
	}
	// Mix 5:2:1:2 over 20 requests tiles exactly twice: 10/4/2/4.
	if rep.PerClassCounts["cached"] != 10 || rep.PerClassCounts["fresh"] != 4 ||
		rep.PerClassCounts["certify"] != 2 || rep.PerClassCounts["committee"] != 4 {
		t.Fatalf("mix split %v, want 10/4/2/4", rep.PerClassCounts)
	}
	for _, class := range []string{"cached", "fresh", "certify", "committee", "overall"} {
		q, ok := rep.Latency[class]
		if !ok {
			t.Fatalf("no quantiles for %s", class)
		}
		if q.P50 <= 0 || q.P95 < q.P50 || q.P99 < q.P95 || q.Max < q.P99 {
			t.Fatalf("%s quantiles not monotone: %+v", class, q)
		}
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput %f", rep.ThroughputRPS)
	}
	// 10 cached replays of one pre-warmed identity: the daemon must report
	// cache hits, and the embedded stats must be the coordinator's.
	if rep.Stats.Cache.Hits < 10 {
		t.Fatalf("stats show %d cache hits, want >= 10", rep.Stats.Cache.Hits)
	}
	if rep.Stats.Fleet.Role != service.RoleCoordinator {
		t.Fatalf("embedded stats role %q", rep.Stats.Fleet.Role)
	}
	if rep.Stats.Fleet.ChunksCompleted == 0 {
		t.Fatal("fresh jobs ran but no fleet chunks completed")
	}
	// Only the pre-warm, the one fresh run of the cached identity, may
	// have watched it; the 10 replays must not.
	cached, err := service.NewClient(ts.URL).Submit(context.Background(), []service.JobRequest{
		{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 500, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached[0].Status != service.StatusDone {
		t.Fatalf("the pre-warmed identity is %s, not done", cached[0].Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := watches[cached[0].ID]; n > 1 {
		t.Fatalf("the cached job was watched %d times, want at most once (the pre-warm)", n)
	}
}

// TestQuantilesDegenerate pins the emptiness guard inside quantiles: the
// empty population must yield the zero Quantiles instead of indexing
// s[len(s)-1] (the latent panic this guards), and a single sample must be
// every quantile at once.
func TestQuantilesDegenerate(t *testing.T) {
	if q := quantiles(nil); q != (Quantiles{Count: 0}) {
		t.Fatalf("quantiles(nil) = %+v, want zero Quantiles", q)
	}
	if q := quantiles([]float64{}); q != (Quantiles{Count: 0}) {
		t.Fatalf("quantiles(empty) = %+v, want zero Quantiles", q)
	}
	q := quantiles([]float64{7.5})
	want := Quantiles{Count: 1, P50: 7.5, P95: 7.5, P99: 7.5, Max: 7.5}
	if q != want {
		t.Fatalf("quantiles(single) = %+v, want %+v", q, want)
	}
}

// TestPickClassUnevenMixes tables pickClass over mixes with zero-weight
// components: every index must land in a positive-weight class and any
// request prefix must carry the configured proportions.
func TestPickClassUnevenMixes(t *testing.T) {
	cases := []struct {
		mix  string
		want [numClasses]int // class counts over one full tiling period
	}{
		{"0:1:0:3", [numClasses]int{0, 1, 0, 3}},
		{"1:0:0:0", [numClasses]int{1, 0, 0, 0}},
		{"0:0:0:2", [numClasses]int{0, 0, 0, 2}},
		{"2:1:3", [numClasses]int{2, 1, 3, 0}},
		{"8:1:1:2", [numClasses]int{8, 1, 1, 2}},
	}
	for _, c := range cases {
		w, err := parseMix(c.mix)
		if err != nil {
			t.Fatalf("parseMix(%q): %v", c.mix, err)
		}
		period := 0
		for _, v := range w {
			period += v
		}
		var got [numClasses]int
		for i := 0; i < 3*period; i++ {
			class := pickClass(i, w)
			if w[class] == 0 {
				t.Fatalf("mix %q: request %d landed in zero-weight class %s", c.mix, i, classNames[class])
			}
			got[class]++
		}
		for class, n := range c.want {
			if got[class] != 3*n {
				t.Fatalf("mix %q: class counts %v over three periods, want 3×%v", c.mix, got, c.want)
			}
		}
	}
}

// TestPickClassPanicsOffTiling pins the hardened fallthrough: an index
// that escapes the tiling (only reachable if the weight invariant breaks,
// forced here with a corrupted negative weight) must panic instead of
// silently misattributing samples to classCached.
func TestPickClassPanicsOffTiling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pickClass returned instead of panicking")
		}
	}()
	// No parseMix output can escape the tiling, so corrupt the vector
	// directly: a negative weight drives the scan past every class.
	pickClass(5, [numClasses]int{-1, 0, 0, 0})
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{}, // missing -target
		{"-target", "x", "-mix", "0:0:0"},
		{"-target", "x", "-mix", "a:b"},
		{"-target", "x", "-mix", "1:1:1:1:1"},
		{"-target", "x", "-requests", "0"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestPickClassTilesTheMix(t *testing.T) {
	w := [numClasses]int{2, 1, 1, 1}
	var got []int
	for i := 0; i < 10; i++ {
		got = append(got, pickClass(i, w))
	}
	want := []int{
		classCached, classCached, classFresh, classCertify, classCommittee,
		classCached, classCached, classFresh, classCertify, classCommittee,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pickClass sequence %v, want %v", got, want)
		}
	}
}

func TestQuantilesNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	q := quantiles(s)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 || q.Max != 100 || q.Count != 100 {
		t.Fatalf("quantiles of 1..100 = %+v", q)
	}
	one := quantiles([]float64{7})
	if one.P50 != 7 || one.P99 != 7 || one.Max != 7 {
		t.Fatalf("singleton quantiles = %+v", one)
	}
}
