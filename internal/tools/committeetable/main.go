// Command committeetable regenerates the README's committee trajectory
// table: message cost and wall-clock per trial versus ring size, composed
// committee election against the flat inner protocol, plus a Wilson upper
// bound on the composed election's worst-position bias. The README table is
// this command's output, so the trajectory is measured, not remembered:
//
//	go run ./internal/tools/committeetable
//
// Composed batches run one committee.Runner per worker over disjoint trial
// stripes — runner state never crosses goroutines. The flat column runs the
// same inner protocol (A-LEADuni) directly on the full ring; above
// -flat-max (default 10,000) one flat trial costs Θ(n²) ≈ 10⁹ messages, so
// the tool prints the analytic n² bill and a time projection instead of
// simulating it, marked "(proj)".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
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
		flatTrials = fs.Int("flat-trials", 4, "flat trials per size (timing sample)")
		flatMax    = fs.Int("flat-max", 10000, "largest n simulated flat; beyond it the n² bill is projected")
		seed       = fs.Int64("seed", 20180516, "base seed")
		workers    = fs.Int("workers", runtime.NumCPU(), "parallel workers for composed batches")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}

	fmt.Println("| n | groups | composed msgs/trial | flat msgs/trial | composed ms/trial | flat ms/trial | composed bias UB (95%) | 1k-trial batch |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, n := range sizes {
		row, err := measure(n, *trials, *flatTrials, *flatMax, *seed, *workers)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		fmt.Println(row)
	}
	return nil
}

// measure produces one table row.
func measure(n, trials, flatTrials, flatMax int, seed int64, workers int) (string, error) {
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

	flatMsgs, flatMS, projected, err := flatCost(n, flatTrials, flatMax, seed, workers)
	if err != nil {
		return "", err
	}
	proj := ""
	if projected {
		proj = " (proj)"
	}
	return fmt.Sprintf("| %d | %d | %d | %d%s | %.2f | %.0f%s | %.4f | %s |",
		n, e.Groups(), e.MessagesPerTrial(), flatMsgs, proj,
		perTrial, flatMS, proj, biasUB, batch1k(perTrial)), nil
}

// batch1k is the wall time of a 1,000-trial batch at perTrialMS
// milliseconds per trial, to the millisecond: the small sizes' batches
// take tens of milliseconds.
func batch1k(perTrialMS float64) time.Duration {
	return time.Duration(perTrialMS * 1000 * float64(time.Millisecond)).Round(time.Millisecond)
}

// composedBatch runs the committee election over disjoint trial stripes,
// one recycled Runner per worker, and returns per-leader counts.
func composedBatch(e *committee.Election, trials int, seed int64, workers int) ([]int, time.Duration, error) {
	if workers < 1 {
		workers = 1
	}
	counts := make([]int, e.N()+1)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := e.Runner()
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
		}(w)
	}
	wg.Wait()
	return counts, time.Since(start), firstErr
}

// flatCost measures (or, above flatMax, projects) the flat A-LEADuni bill
// at size n: messages per trial and milliseconds per trial.
func flatCost(n, flatTrials, flatMax int, seed int64, workers int) (msgs int, ms float64, projected bool, err error) {
	if n > flatMax {
		// A-LEADuni circulates every secret around the whole ring: n² data
		// messages. Project time from the largest measured size by the n²
		// growth law.
		baseMsgs, baseMS, _, err := flatCost(flatMax, flatTrials, flatMax, seed, workers)
		if err != nil {
			return 0, 0, false, err
		}
		scale := float64(n) * float64(n) / (float64(flatMax) * float64(flatMax))
		return int(float64(baseMsgs) * scale), baseMS * scale, true, nil
	}
	start := time.Now()
	dist, err := ring.TrialsOpts(context.Background(), ring.Spec{N: n, Protocol: alead.New(), Seed: seed},
		flatTrials, ring.TrialOptions{Workers: workers})
	if err != nil {
		return 0, 0, false, err
	}
	elapsed := time.Since(start)
	return dist.Messages / dist.Trials,
		elapsed.Seconds() * 1000 / float64(dist.Trials), false, nil
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
