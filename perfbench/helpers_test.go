package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := nearestRank(sorted, c.q); got != c.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("nearestRank of no samples = %v, want NaN", got)
	}
}

func TestSummarizeTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{19, 0, 0},     // p50 leaves 9 beyond: no tail
		{20, 0.5, 10},  // p50 leaves exactly 10 beyond
		{99, 0.5, 50},  // p90 would leave 9 beyond
		{100, 0.9, 90}, // p90 leaves 10
		{1000, 0.99, 990},
		{10000, 0.999, 9990},
	} {
		got := summarize(samples(c.n))
		if got.Count != c.n || got.TailQ != c.tailQ || got.Tail != c.tail {
			t.Errorf("summarize(%d samples) = %+v, want tail p%v = %v", c.n, got, c.tailQ, c.tail)
		}
	}
	// A failed operation is an infinite latency: it counts, and a
	// percentile landing on it reads -1.
	xs := samples(89)
	for i := 0; i < 11; i++ {
		xs = append(xs, math.Inf(1))
	}
	got := summarize(xs)
	if got.Failed != 11 || got.P50 != 50 || got.TailQ != 0.9 || got.Tail != -1 {
		t.Errorf("summarize with failures = %+v, want failed 11, p50 50, p90 -1", got)
	}
}

func TestMixClassTiling(t *testing.T) {
	weights := []int{8, 1, 1}
	counts := make([]int, len(weights))
	for i := 0; i < 10; i++ {
		counts[mixClass(i, weights)]++
	}
	for c, w := range weights {
		if counts[c] != w {
			t.Errorf("one block gave class %d %d slots, want %d", c, counts[c], w)
		}
	}
	for i, want := range []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0} {
		if got := mixClass(i, weights); got != want {
			t.Errorf("mixClass(%d) = %d, want %d", i, got, want)
		}
	}
	// Zero weights never receive a slot.
	for i := 0; i < 6; i++ {
		if got := mixClass(i, []int{0, 2, 1}); got == 0 {
			t.Errorf("mixClass(%d) picked a zero-weight class", i)
		}
	}
}

// spans builds a span tree for the self-time tests: an operation of 100 ns
// with layer children.
func spans(children ...[2]int64) []span {
	out := []span{{ID: 1, Name: "op.x", Start: 0, End: 100}}
	for i, c := range children {
		out = append(out, span{ID: i + 2, Parent: 1, Name: "layer", Start: c[0], End: c[1]})
	}
	return out
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"leaf", nil, 100},
		{"one child", [][2]int64{{10, 40}}, 70},
		{"disjoint children", [][2]int64{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", [][2]int64{{10, 50}, {30, 60}}, 50},
		{"nested interval", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"child clipped to the parent", [][2]int64{{90, 130}}, 90},
	} {
		self := selfTime(spans(c.children...))
		if self[1] != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, self[1], c.want)
		}
	}
	// Grandchildren reduce their own parent, not the root.
	tree := []span{
		{ID: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 80},
		{ID: 3, Parent: 2, Name: "b", Start: 10, End: 40},
	}
	self := selfTime(tree)
	if self[1] != 20 || self[2] != 50 || self[3] != 30 {
		t.Errorf("nested self times = %v, want op 20, a 50, b 30", self)
	}
	stats := layerStats(tree)
	if st := stats["a"]; st.Count != 1 || st.SelfMS != 50e-6 || st.TotalMS != 80e-6 {
		t.Errorf("layerStats[a] = %+v", st)
	}
}

func TestResidualFrac(t *testing.T) {
	tree := []span{
		{ID: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "layer", Start: 0, End: 90},
		{ID: 3, Name: "op.y", Start: 100, End: 200},
		{ID: 4, Parent: 3, Name: "layer", Start: 100, End: 170},
		// Spans outside any operation do not enter the residual.
		{ID: 5, Name: "fleet.proxy/chunks/claim", Start: 0, End: 500},
	}
	// (10 + 30) unaccounted of 200.
	if got := residualFrac(tree); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("residualFrac = %v, want 0.2", got)
	}
	if got := residualFrac(nil); got != 0 {
		t.Errorf("residualFrac of no spans = %v, want 0", got)
	}
}

func TestBinCounts(t *testing.T) {
	counts := make([]int, 1024)
	for i := range counts {
		counts[i] = 1
	}
	got := binCounts(counts, 64) // about 5 expected per bin: 8 bins of 128
	if len(got) != 8 {
		t.Fatalf("binCounts gave %d bins, want 8", len(got))
	}
	for _, c := range got {
		if c != 128 {
			t.Fatalf("bins %v, want 8 × 128", got)
		}
	}
}

func TestTracerNil(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("a nil tracer recorded something")
	}
}
