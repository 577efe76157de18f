package harness

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cointoss"
	"repro/internal/ring"
	"repro/internal/scenario"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (E1..E15).
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper result being reproduced.
	Claim string
	// Headers and Rows hold the tabular data.
	Headers []string
	Rows    [][]string
	// Notes are free-form observations appended under the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Paper claim:* %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, note := range t.Notes {
		b.WriteString("\n> " + note + "\n")
	}
	return b.String()
}

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks ring sizes and trial counts for CI-speed runs.
	Quick bool
	// Seed makes the whole suite reproducible.
	Seed int64
	// Workers is the trial-engine worker count for every batch inside
	// every experiment; 0 picks runtime.NumCPU(). Results are identical
	// for any value.
	Workers int
}

// coinOpts lowers the config onto the cointoss trial engine.
func (cfg Config) coinOpts() cointoss.Options {
	return cointoss.Options{Workers: cfg.Workers}
}

// scenarioDist runs a registered scenario and returns its raw distribution.
// The experiments' trial batches are thin lookups into the scenario
// registry: the registry routes through the same engine with the same seed
// derivation, so the tables are byte-identical to the former direct
// ring.TrialsOpts/RunAttackTrials calls.
func (cfg Config) scenarioDist(name string, seed int64, o scenario.Opts) (*ring.Distribution, error) {
	o.Workers = cfg.Workers
	out, err := scenario.MustFind(name).RunOpts(context.Background(), seed, o)
	if err != nil {
		return nil, err
	}
	return out.Dist, nil
}

// Experiment is one registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// All returns the full experiment registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Basic-LEAD falls to one adversary (Claim B.1)", Run: RunE1BasicSingle},
		{ID: "E2", Title: "√n equally spaced adversaries control A-LEADuni (Theorem 4.2)", Run: RunE2SqrtAttack},
		{ID: "E3", Title: "Randomly located coalitions control A-LEADuni w.h.p. (Theorem C.1)", Run: RunE3Randomized},
		{ID: "E4", Title: "The cubic attack (Theorem 4.3)", Run: RunE4Cubic},
		{ID: "E5", Title: "A-LEADuni below the attack thresholds (Theorem 5.1, Claim D.1, Conjecture 4.7)", Run: RunE5ALeadResilience},
		{ID: "E6", Title: "Synchronization gaps: k² vs k (Lemma D.5, Section 6)", Run: RunE6SyncGap},
		{ID: "E7", Title: "PhaseAsyncLead resists k ≤ √n/10 (Theorem 6.1)", Run: RunE7PhaseResilience},
		{ID: "E8", Title: "k = √n+3 rushing controls PhaseAsyncLead (Section 6 tightness)", Run: RunE8PhaseAttack},
		{ID: "E9", Title: "Sum output + phase validation falls to k = 4 (Appendix E.4)", Run: RunE9SumPhase},
		{ID: "E10", Title: "Coin toss ⇔ leader election reductions (Theorem 8.1)", Run: RunE10Reductions},
		{ID: "E11", Title: "Two-party dictators and the half-ring coalition (Lemma F.2, Theorem 7.2)", Run: RunE11TreeImpossibility},
		{ID: "E12", Title: "Every connected graph is a ⌈n/2⌉-simulated tree (Claim F.5)", Run: RunE12Decomposition},
		{ID: "E13", Title: "Message complexity: the price of fairness (Section 1.1)", Run: RunE13MessageComplexity},
		{ID: "E14", Title: "The steerability transition near k ≈ √n (ablation)", Run: RunE14PhaseTransition},
		{ID: "E15", Title: "The resilience landscape across network models (Section 1.1)", Run: RunE15ScenarioLandscape},
	}
	sort.Slice(exps, func(i, j int) bool {
		return numeric(exps[i].ID) < numeric(exps[j].ID)
	})
	return exps
}

func numeric(id string) int {
	v, _ := strconv.Atoi(strings.TrimPrefix(id, "E"))
	return v
}

// Formatting helpers shared by the experiment implementations.

func itoa(v int) string { return strconv.Itoa(v) }

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
