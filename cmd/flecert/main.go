// Command flecert certifies the game-theoretic fairness of registered
// scenarios: for each matched scenario it sweeps the catalog's deviation
// space — attack family × coalition size × steering mode × target — and
// prints one equilibrium certificate per scenario: the maximum estimated
// coalition gain over the fair 1/n baseline, its multiplicity-corrected
// Wilson upper bound, the arg-max deviation (with a reproducible digest),
// and the verdict fair / exploitable / inconclusive.
//
// Usage:
//
//	flecert [-match RE] [-n N] [-trials T] [-min-trials M] [-maxk K]
//	        [-eps E] [-alpha A] [-seed S] [-workers W]
//	        [-format table|csv|json|markdown] [-v] [-mar FILE]...
//
// Each -mar FILE is a MAR protocol or adversary spec (see ARCHITECTURE.md)
// compiled and registered into the catalog before matching, so spec'd
// scenarios certify exactly like the built-in ones; the embedded spec
// twins (ring/mar-basic-lead/*) are always present.
//
// Honest scenarios sweep every applicable deviation family up to the
// protocol's claimed resilience bound (override with -maxk), so their
// certificates machine-check the paper's fairness claims; attack scenarios
// sweep their own family across modes and sizes, exhibiting tightness. For
// a fixed seed the output is byte-identical at any -workers value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/equilibrium"
	"repro/internal/mardsl/marlib"
)

// marFlag collects the repeatable -mar spec-file arguments.
type marFlag []string

func (f *marFlag) String() string     { return strings.Join(*f, ",") }
func (f *marFlag) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flecert:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("flecert", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		match     = fs.String("match", "", "regular expression filtering scenario names; empty = all")
		n         = fs.Int("n", 0, "override every scenario's network size (0 = registered defaults)")
		trials    = fs.Int("trials", 0, "per-candidate trial budget (0 = 2000; early stopping usually ends sooner)")
		minTrials = fs.Int("min-trials", 0, "earliest early-stopping point (0 = 100)")
		maxK      = fs.Int("maxk", 0, "coalition bound for honest sweeps (0 = the protocol's resilience claim)")
		eps       = fs.Float64("eps", 0, "fairness threshold ε (0 = 0.05)")
		alpha     = fs.Float64("alpha", 0, "simultaneous error level (0 = 0.05)")
		seed      = fs.Int64("seed", 20180516, "base seed for every candidate batch")
		workers   = fs.Int("workers", 0, "worker budget per sweep: up to this many candidates run at once (0 = all CPUs); certificates are identical for any value")
		version   = fs.String("version", "dev", "code version recorded in certificate digests")
		format    = fs.String("format", "table", "output format: table, csv, json, markdown")
		verbose   = fs.Bool("v", false, "also list every swept candidate (table format only)")
	)
	var marFiles marFlag
	fs.Var(&marFiles, "mar", "MAR spec file to compile and register before matching (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := marlib.RegisterFiles(marFiles); err != nil {
		return err
	}
	switch *format {
	case "table", "csv", "json", "markdown":
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	opts := equilibrium.Options{
		N:         *n,
		Trials:    *trials,
		MinTrials: *minTrials,
		Workers:   *workers,
		MaxK:      *maxK,
		Epsilon:   *eps,
		Alpha:     *alpha,
		Version:   *version,
	}
	certs, err := equilibrium.CertifyMatch(context.Background(), *match, *seed, opts)
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(certs)
	case "csv":
		return writeCSV(out, certs)
	case "markdown":
		return writeMarkdown(out, certs)
	default:
		return writeTable(out, certs, *verbose)
	}
}

// sweptTrials totals the trials the sweep actually ran.
func sweptTrials(c *equilibrium.Certificate) int {
	total := 0
	for _, r := range c.Candidates {
		total += r.Trials
	}
	return total
}

// feasible counts the candidates that planned and ran.
func feasible(c *equilibrium.Certificate) int {
	k := 0
	for _, r := range c.Candidates {
		if !r.Infeasible {
			k++
		}
	}
	return k
}

// argMax renders the certificate's arg-max deviation.
func argMax(c *equilibrium.Certificate) string {
	best := c.Best()
	if best == nil {
		return "-"
	}
	return best.Candidate.String()
}

// argMaxDigest renders a short prefix of the arg-max deviation's digest.
func argMaxDigest(c *equilibrium.Certificate) string {
	best := c.Best()
	if best == nil {
		return "-"
	}
	return best.Digest[:12]
}

func writeTable(out io.Writer, certs []*equilibrium.Certificate, verbose bool) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SCENARIO\tN\tCANDS\tTRIALS\tBASE\tMAXGAIN\tGAIN-UB\tVERDICT\tARGMAX\tDIGEST")
	for _, c := range certs {
		fmt.Fprintf(w, "%s\t%d\t%d/%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			c.Scenario, c.N, feasible(c), len(c.Candidates), sweptTrials(c),
			f4(c.Baseline), f4(c.MaxGain), f4(c.MaxGainUpper), c.Verdict,
			argMax(c), argMaxDigest(c))
		if verbose {
			for _, r := range c.Candidates {
				if r.Infeasible {
					fmt.Fprintf(w, "  · %s\tinfeasible\t%s\n", r.Candidate, r.Reason)
					continue
				}
				fmt.Fprintf(w, "  · %s\t%d\ttrials\t\tgain %s\t[%s, %s]\tfail %s\n",
					r.Candidate, r.Trials, f4(r.Gain), f4(r.GainLo), f4(r.GainHi), f4(r.FailRate))
			}
		}
	}
	return w.Flush()
}

func writeCSV(out io.Writer, certs []*equilibrium.Certificate) error {
	fmt.Fprintln(out, "scenario,n,candidates,feasible,trials,baseline,max_gain,max_gain_lower,max_gain_upper,verdict,argmax,argmax_digest")
	for _, c := range certs {
		fmt.Fprintf(out, "%s,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%s\n",
			c.Scenario, c.N, len(c.Candidates), feasible(c), sweptTrials(c),
			f4(c.Baseline), f4(c.MaxGain), f4(c.MaxGainLower), f4(c.MaxGainUpper),
			c.Verdict, quoteComma(argMax(c)), argMaxDigest(c))
	}
	return nil
}

func writeMarkdown(out io.Writer, certs []*equilibrium.Certificate) error {
	fmt.Fprintln(out, "| scenario | n | cands | trials | baseline | max gain | gain UB | verdict | arg-max | digest |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")
	for _, c := range certs {
		fmt.Fprintf(out, "| `%s` | %d | %d/%d | %d | %s | %s | %s | %s | `%s` | `%s` |\n",
			c.Scenario, c.N, feasible(c), len(c.Candidates), sweptTrials(c),
			f4(c.Baseline), f4(c.MaxGain), f4(c.MaxGainUpper), c.Verdict,
			argMax(c), argMaxDigest(c))
	}
	return nil
}

// quoteComma wraps a CSV cell containing commas.
func quoteComma(s string) string {
	for _, r := range s {
		if r == ',' {
			return strconv.Quote(s)
		}
	}
	return s
}

func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
