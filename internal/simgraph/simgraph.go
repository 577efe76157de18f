// Package simgraph implements the graph-theoretic side of Section 7:
// undirected communication graphs, trees, the k-simulated-tree property
// (Definition 7.1), and the Claim F.5 constructive decomposition showing
// every connected graph is a ⌈n/2⌉-simulated tree.
//
// A graph G is a k-simulated tree when its vertices can be partitioned into
// connected parts of size at most k whose quotient graph is a tree. By
// Theorem 7.2 no such graph admits an ε-k-resilient fair leader election
// protocol for ε ≤ 1/n: a coalition occupying one part can simulate its
// tree node and, by the Lemma F.2/F.3 induction, assures an outcome. The
// attacks package's HalfRing realizes this concretely for the ring, which
// this package decomposes into a 2-node simulated tree.
package simgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over vertices 1..N.
type Graph struct {
	N   int
	adj [][]int // adjacency lists, 1-indexed
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) (*Graph, error) {
	if n < 1 {
		return nil, errors.New("simgraph: need n ≥ 1")
	}
	return &Graph{N: n, adj: make([][]int, n+1)}, nil
}

// AddEdge inserts the undirected edge {u, v}; duplicates are ignored.
func (g *Graph) AddEdge(u, v int) error {
	if u < 1 || u > g.N || v < 1 || v > g.N {
		return fmt.Errorf("simgraph: edge {%d,%d} out of range [1,%d]", u, v, g.N)
	}
	if u == v {
		return fmt.Errorf("simgraph: self-loop on %d", u)
	}
	for _, w := range g.adj[u] {
		if w == v {
			return nil
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// Neighbors returns v's adjacency list (not a copy; callers must not
// modify it).
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Edges returns each undirected edge once, as ordered pairs u < v.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 1; u <= g.N; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	return len(g.component(1, nil)) == g.N
}

// component returns the vertices reachable from start while staying inside
// allowed (nil = all vertices). Both the visited set and the allowed set are
// dense boolean slices indexed by vertex — the decomposition search calls
// this in its innermost loop, where map-backed sets dominated the profile.
func (g *Graph) component(start int, allowed []bool) []int {
	if allowed != nil && !allowed[start] {
		return nil
	}
	seen := make([]bool, g.N+1)
	seen[start] = true
	queue := make([]int, 1, g.N)
	queue[0] = start
	out := make([]int, 0, g.N)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, w := range g.adj[v] {
			if seen[w] || (allowed != nil && !allowed[w]) {
				continue
			}
			seen[w] = true
			queue = append(queue, w)
		}
	}
	sort.Ints(out)
	return out
}

// IsTree reports whether the graph is a tree (connected, |E| = n−1).
func (g *Graph) IsTree() bool {
	return g.Connected() && len(g.Edges()) == g.N-1
}

// Ring returns the n-cycle.
func Ring(n int) (*Graph, error) {
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	if n < 3 {
		return nil, errors.New("simgraph: ring needs n ≥ 3")
	}
	for i := 1; i <= n; i++ {
		if err := g.AddEdge(i, i%n+1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Path returns the path graph 1–2–…–n.
func Path(n int) (*Graph, error) {
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Star returns the star with center 1 and n−1 leaves.
func Star(n int) (*Graph, error) {
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	for i := 2; i <= n; i++ {
		if err := g.AddEdge(1, i); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Grid returns the rows×cols grid graph (vertices numbered row-major).
func Grid(rows, cols int) (*Graph, error) {
	g, err := NewGraph(rows * cols)
	if err != nil {
		return nil, err
	}
	id := func(r, c int) int { return r*cols + c + 1 }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := g.AddEdge(id(r, c), id(r, c+1)); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := g.AddEdge(id(r, c), id(r+1, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Partition assigns every vertex to a part (Part[v] ∈ [1..Parts]).
type Partition struct {
	Part  []int // 1-indexed by vertex
	Parts int
}

// MaxPartSize returns the size of the largest part — the k of the
// k-simulated tree this partition witnesses.
func (p Partition) MaxPartSize() int {
	sizes := make([]int, p.Parts+1)
	maxSize := 0
	for v := 1; v < len(p.Part); v++ {
		sizes[p.Part[v]]++
		if sizes[p.Part[v]] > maxSize {
			maxSize = sizes[p.Part[v]]
		}
	}
	return maxSize
}

// VerifySimulatedTree checks Definition 7.1: every part is non-empty,
// connected in g, of size at most k, and the quotient graph over the parts
// is a tree. It returns the quotient tree on success.
func VerifySimulatedTree(g *Graph, p Partition, k int) (*Graph, error) {
	if len(p.Part) != g.N+1 {
		return nil, fmt.Errorf("simgraph: partition covers %d vertices, graph has %d", len(p.Part)-1, g.N)
	}
	// Group all members in one pass, then check each part against a
	// reusable allowed set (only the part's own entries are toggled).
	membersByPart := make([][]int, p.Parts+1)
	for v := 1; v < len(p.Part); v++ {
		part := p.Part[v]
		if part < 1 || part > p.Parts {
			return nil, fmt.Errorf("simgraph: vertex %d assigned to part %d outside [1,%d]", v, part, p.Parts)
		}
		membersByPart[part] = append(membersByPart[part], v)
	}
	allowed := make([]bool, g.N+1)
	for part := 1; part <= p.Parts; part++ {
		members := membersByPart[part]
		if len(members) == 0 {
			return nil, fmt.Errorf("simgraph: empty part %d", part)
		}
		if len(members) > k {
			return nil, fmt.Errorf("simgraph: part %d has %d > k=%d members", part, len(members), k)
		}
		for _, v := range members {
			allowed[v] = true
		}
		got := g.component(members[0], allowed)
		for _, v := range members {
			allowed[v] = false
		}
		if len(got) != len(members) {
			return nil, fmt.Errorf("simgraph: part %d is disconnected", part)
		}
	}
	quotient, err := NewGraph(p.Parts)
	if err != nil {
		return nil, err
	}
	for _, e := range g.Edges() {
		pu, pv := p.Part[e[0]], p.Part[e[1]]
		if pu != pv {
			if err := quotient.AddEdge(pu, pv); err != nil {
				return nil, err
			}
		}
	}
	if !quotient.IsTree() {
		return nil, errors.New("simgraph: quotient graph is not a tree")
	}
	return quotient, nil
}

// HalfSplit decomposes any connected graph into a ⌈n/2⌉-simulated tree
// following Claim F.5's construction: the first part is a connected set of
// ⌈n/2⌉ vertices (grown by BFS), and each following part is a maximal
// connected subset of what remains. Maximality forbids cycles in the
// quotient, which is therefore a tree.
func HalfSplit(g *Graph) (Partition, error) {
	if !g.Connected() {
		return Partition{}, errors.New("simgraph: graph is not connected")
	}
	part := make([]int, g.N+1)
	half := (g.N + 1) / 2

	// B1: BFS from vertex 1, first ⌈n/2⌉ vertices reached.
	taken := 0
	seen := make([]bool, g.N+1)
	seen[1] = true
	queue := []int{1}
	for len(queue) > 0 && taken < half {
		v := queue[0]
		queue = queue[1:]
		part[v] = 1
		taken++
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	parts := 1
	// Remaining parts: maximal connected subsets of the leftovers.
	allowed := make([]bool, g.N+1)
	for v := 1; v <= g.N; v++ {
		if part[v] != 0 {
			continue
		}
		parts++
		for w := 1; w <= g.N; w++ {
			allowed[w] = part[w] == 0
		}
		for _, w := range g.component(v, allowed) {
			part[w] = parts
		}
	}
	return Partition{Part: part, Parts: parts}, nil
}

// TreeSelfPartition returns the trivial 1-simulated-tree partition of a
// tree: every vertex its own part. Trees therefore admit no 1-resilient
// fair leader election at all (Theorem 7.2 with k = 1).
func TreeSelfPartition(g *Graph) (Partition, error) {
	if !g.IsTree() {
		return Partition{}, errors.New("simgraph: graph is not a tree")
	}
	part := make([]int, g.N+1)
	for v := 1; v <= g.N; v++ {
		part[v] = v
	}
	return Partition{Part: part, Parts: g.N}, nil
}

// MinSimulatedTreeK searches for the smallest k for which the graph is a
// k-simulated tree, by trying contractions greedily over BFS-grown parts of
// bounded size from every start vertex. It is a heuristic upper bound — the
// exact minimum is a hard combinatorial problem — but it is exact on trees
// (k = 1) and rings (k = ⌈n/2⌉), the two cases the paper discusses.
func MinSimulatedTreeK(g *Graph) (int, Partition, error) {
	if !g.Connected() {
		return 0, Partition{}, errors.New("simgraph: graph is not connected")
	}
	if g.IsTree() {
		p, err := TreeSelfPartition(g)
		return 1, p, err
	}
	sc := newSearchScratch(g.N)
	for k := 2; k <= (g.N+1)/2; k++ {
		for start := 1; start <= g.N; start++ {
			p := greedyPartition(g, k, start, sc)
			if verifyCandidate(g, p, k, sc) {
				// p aliases the scratch; copy it out before returning.
				part := make([]int, len(p.Part))
				copy(part, p.Part)
				return k, Partition{Part: part, Parts: p.Parts}, nil
			}
		}
	}
	p, err := HalfSplit(g)
	return (g.N + 1) / 2, p, err
}

// searchScratch holds the working sets of MinSimulatedTreeK's greedy
// search. The search tries O(n²) candidate partitions (every k and every
// start vertex) before it settles, so its inner loop allocates nothing:
// visited sets are generation-stamped instead of cleared, and every slice
// is reused at its grown capacity.
type searchScratch struct {
	part     []int
	seen     []int // visited iff seen[v] == gen
	gen      int
	queue    []int
	frontier []int
	allowed  []bool
	byPart   [][]int
	quot     *Graph
}

func newSearchScratch(n int) *searchScratch {
	return &searchScratch{
		part:    make([]int, n+1),
		seen:    make([]int, n+1),
		queue:   make([]int, 0, n),
		allowed: make([]bool, n+1),
	}
}

// bfs fills sc.queue with the vertices reachable from start in BFS order,
// restricted to allowed when non-nil, and returns it (valid until the next
// call).
func (sc *searchScratch) bfs(g *Graph, start int, allowed []bool) []int {
	sc.gen++
	seen, gen := sc.seen, sc.gen
	seen[start] = gen
	queue := append(sc.queue[:0], start)
	for qi := 0; qi < len(queue); qi++ {
		for _, w := range g.adj[queue[qi]] {
			if seen[w] != gen && (allowed == nil || allowed[w]) {
				seen[w] = gen
				queue = append(queue, w)
			}
		}
	}
	sc.queue = queue
	return queue
}

// greedyPartition grows parts of size ≤ k by BFS starting at start,
// exactly as Claim F.5's construction walks the graph. The returned
// partition aliases sc.part and is valid until the next call.
func greedyPartition(g *Graph, k, start int, sc *searchScratch) Partition {
	clear(sc.part)
	part := sc.part
	parts := 0
	// BFS order from start keeps parts contiguous.
	for _, v := range sc.bfs(g, start, nil) {
		if part[v] != 0 {
			continue
		}
		parts++
		// Grow a connected part of size ≤ k around v among unassigned.
		part[v] = parts
		count := 1
		frontier := append(sc.frontier[:0], v)
		for fi := 0; fi < len(frontier) && count < k; fi++ {
			for _, w := range g.adj[frontier[fi]] {
				if part[w] == 0 && count < k {
					part[w] = parts
					count++
					frontier = append(frontier, w)
				}
			}
		}
		sc.frontier = frontier
	}
	return Partition{Part: part, Parts: parts}
}

// verifyCandidate decides VerifySimulatedTree's accept/reject question on a
// search candidate without allocating: same part-range, non-emptiness, size,
// connectivity and quotient-tree checks, with every working set drawn from
// the scratch. Candidates that pass are re-checkable by the public verifier.
func verifyCandidate(g *Graph, p Partition, k int, sc *searchScratch) bool {
	if cap(sc.byPart) < p.Parts+1 {
		sc.byPart = make([][]int, p.Parts+1)
	}
	byPart := sc.byPart[:p.Parts+1]
	for i := range byPart {
		byPart[i] = byPart[i][:0]
	}
	for v := 1; v < len(p.Part); v++ {
		part := p.Part[v]
		if part < 1 || part > p.Parts {
			return false
		}
		byPart[part] = append(byPart[part], v)
	}
	sc.byPart = byPart
	for part := 1; part <= p.Parts; part++ {
		members := byPart[part]
		if len(members) == 0 || len(members) > k {
			return false
		}
		for _, v := range members {
			sc.allowed[v] = true
		}
		reached := len(sc.bfs(g, members[0], sc.allowed))
		for _, v := range members {
			sc.allowed[v] = false
		}
		if reached != len(members) {
			return false
		}
	}
	// The quotient over the parts must be a tree: exactly parts−1 distinct
	// inter-part edges, and connected.
	if sc.quot == nil || cap(sc.quot.adj) < p.Parts+1 {
		sc.quot = &Graph{adj: make([][]int, p.Parts+1)}
	}
	q := sc.quot
	q.N = p.Parts
	q.adj = q.adj[:cap(q.adj)][:p.Parts+1]
	for i := range q.adj {
		q.adj[i] = q.adj[i][:0]
	}
	edges := 0
	for u := 1; u <= g.N; u++ {
		for _, v := range g.adj[u] {
			if u >= v {
				continue
			}
			pu, pv := p.Part[u], p.Part[v]
			if pu == pv {
				continue
			}
			dup := false
			for _, w := range q.adj[pu] {
				if w == pv {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			q.adj[pu] = append(q.adj[pu], pv)
			q.adj[pv] = append(q.adj[pv], pu)
			edges++
		}
	}
	if edges != p.Parts-1 {
		return false
	}
	return len(sc.bfs(q, 1, nil)) == q.N
}
