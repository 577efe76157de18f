// Command committeetable regenerates the README's committee trajectory
// table: message cost and wall-clock per trial versus ring size, composed
// committee election against the flat inner protocol, plus a Wilson upper
// bound on the composed election's worst-position bias. The README table is
// this command's output, so the trajectory is measured, not remembered:
//
//	go run ./internal/tools/committeetable
//
// Composed batches run one committee.Runner per worker over disjoint trial
// stripes — runner state never crosses goroutines. The runners are built
// and warmed outside the timed region, and a batch under a second is timed
// three times and reported by its median. The flat column runs the
// same inner protocol (A-LEADuni) directly on the full ring, as a plain
// batch: -flat-trials must be a whole number of lane blocks (ring.Lanes
// trials each), so every timed flat trial is a lane execution's, as in any
// plain batch. Above -flat-max (default 10,000) one flat trial costs
// Θ(n²) ≈ 10⁹ messages, so the tool prints the analytic n² bill and a time
// projection instead of simulating it, marked "(proj)": the -flat-max size
// is timed once per run and every projected row scales that one timing by
// (n/flat-max)².
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/committee"
	"repro/internal/protocols/alead"
	"repro/internal/ring"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "committeetable:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("committeetable", flag.ContinueOnError)
	var (
		sizesFlag  = fs.String("sizes", "256,1000,10000,50000", "comma-separated ring sizes")
		trials     = fs.Int("trials", 1000, "composed trials per size")
		flatTrials = fs.Int("flat-trials", ring.Lanes, "flat trials per size (timing sample; a positive multiple of the lane width)")
		flatMax    = fs.Int("flat-max", 10000, "largest n simulated flat; beyond it the n² bill is projected")
		seed       = fs.Int64("seed", 20180516, "base seed")
		workers    = fs.Int("workers", runtime.NumCPU(), "parallel workers for composed batches")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A partial lane block runs scalar, which would time a different path
	// than plain batches take.
	if *flatTrials < ring.Lanes || *flatTrials%ring.Lanes != 0 {
		return fmt.Errorf("-flat-trials %d is not a positive multiple of the lane width %d", *flatTrials, ring.Lanes)
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}

	flat := &flatBills{max: *flatMax, measure: func(n int) (flatBill, error) {
		return flatRun(n, *flatTrials, *seed, *workers)
	}}
	fmt.Println("| n | groups | composed msgs/trial | flat msgs/trial | composed ms/trial | flat ms/trial | composed bias UB (95%) | 1k-trial batch |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, n := range sizes {
		row, err := measure(n, *trials, flat, *seed, *workers)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		fmt.Println(row)
	}
	return nil
}

// measure produces one table row.
func measure(n, trials int, flat *flatBills, seed int64, workers int) (string, error) {
	e, err := committee.New(n, committee.InnerALead)
	if err != nil {
		return "", err
	}
	counts, elapsed, err := composedBatch(e, trials, seed, workers)
	if err != nil {
		return "", err
	}
	maxCount := 0
	for _, c := range counts[1:] {
		if c > maxCount {
			maxCount = c
		}
	}
	_, hi := stats.WilsonInterval(maxCount, trials, 1.96)
	biasUB := hi - 1.0/float64(n)
	perTrial := elapsed.Seconds() * 1000 / float64(trials)

	bill, projected, err := flat.at(n)
	if err != nil {
		return "", err
	}
	proj := ""
	if projected {
		proj = " (proj)"
	}
	return fmt.Sprintf("| %d | %d | %d | %d%s | %.2f | %.2f%s | %.4f | %s |",
		n, e.Groups(), e.MessagesPerTrial(), bill.msgs, proj,
		perTrial, bill.ms, proj, biasUB, batch1k(perTrial)), nil
}

// batch1k is the wall time of a 1,000-trial batch at perTrialMS
// milliseconds per trial, to the millisecond: the small sizes' batches
// take tens of milliseconds.
func batch1k(perTrialMS float64) time.Duration {
	return time.Duration(perTrialMS * 1000 * float64(time.Millisecond)).Round(time.Millisecond)
}

// A composed batch faster than minTimed is timed timedRuns times, and the
// table reports the median: one run of a sub-second batch is mostly noise.
const (
	minTimed  = time.Second
	timedRuns = 3
)

// composedBatch runs the committee election over disjoint trial stripes,
// one recycled Runner per worker, and returns per-leader counts and the
// batch's wall time. The runners are built and warmed by one trial before
// the clock starts, so the time is a warm batch's; a batch under minTimed
// runs timedRuns times and its median time is returned.
func composedBatch(e *committee.Election, trials int, seed int64, workers int) ([]int, time.Duration, error) {
	if workers < 1 {
		workers = 1
	}
	runners := make([]*committee.Runner, workers)
	for w := range runners {
		runners[w] = e.Runner()
		if _, err := runners[w].Run(ring.TrialSeed(seed, trials)); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	counts, elapsed, err := stripes(e, runners, trials, seed)
	if err != nil || elapsed >= minTimed {
		return counts, elapsed, err
	}
	times := []time.Duration{elapsed}
	for len(times) < timedRuns {
		if _, elapsed, err = stripes(e, runners, trials, seed); err != nil {
			return nil, 0, err
		}
		times = append(times, elapsed)
	}
	slices.Sort(times)
	return counts, times[len(times)/2], nil
}

// stripes runs one timed batch: worker w runs trials w, w+W, … on
// runners[w].
func stripes(e *committee.Election, runners []*committee.Runner, trials int, seed int64) ([]int, time.Duration, error) {
	workers := len(runners)
	counts := make([]int, e.N()+1)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	start := time.Now()
	for w, r := range runners {
		wg.Add(1)
		go func(w int, r *committee.Runner) {
			defer wg.Done()
			local := make([]int, e.N()+1)
			for t := w; t < trials; t += workers {
				res, err := r.Run(ring.TrialSeed(seed, t))
				if err != nil || res.Failed {
					if err == nil {
						err = fmt.Errorf("trial %d failed: %v", t, res.Reason)
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local[res.Output]++
			}
			mu.Lock()
			for i, c := range local {
				counts[i] += c
			}
			mu.Unlock()
		}(w, r)
	}
	wg.Wait()
	return counts, time.Since(start), firstErr
}

// flatBill is the flat A-LEADuni cost at one ring size.
type flatBill struct {
	msgs int     // messages per trial
	ms   float64 // milliseconds per trial
}

// flatBills measures the flat bill at sizes up to max and projects it
// beyond. The bill at max is measured at most once, so the row at max and
// every projected row scale one timing.
type flatBills struct {
	max     int
	measure func(n int) (flatBill, error)
	atMax   *flatBill
}

// at returns the bill at size n and whether it is projected: above max, the
// bill at max times (n/max)², since A-LEADuni circulates every secret
// around the whole ring, n² data messages.
func (f *flatBills) at(n int) (flatBill, bool, error) {
	if n > f.max {
		b, _, err := f.at(f.max)
		scale := float64(n) * float64(n) / (float64(f.max) * float64(f.max))
		return flatBill{msgs: int(float64(b.msgs) * scale), ms: b.ms * scale}, true, err
	}
	if n == f.max && f.atMax != nil {
		return *f.atMax, false, nil
	}
	b, err := f.measure(n)
	if err == nil && n == f.max {
		f.atMax = &b
	}
	return b, false, err
}

// flatRun times flatTrials flat A-LEADuni trials at size n.
func flatRun(n, flatTrials int, seed int64, workers int) (flatBill, error) {
	start := time.Now()
	dist, err := ring.TrialsOpts(context.Background(), ring.Spec{N: n, Protocol: alead.New(), Seed: seed},
		flatTrials, ring.TrialOptions{Workers: workers})
	if err != nil {
		return flatBill{}, err
	}
	elapsed := time.Since(start)
	return flatBill{msgs: dist.Messages / dist.Trials, ms: elapsed.Seconds() * 1000 / float64(dist.Trials)}, nil
}

// parseSizes parses the -sizes list.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 4 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}
