package attacks

import (
	"fmt"

	"repro/internal/protocols/phaselead"
	"repro/internal/randfunc"
	"repro/internal/ring"
	"repro/internal/sim"
)

// PhaseMode selects how far the PhaseRushing coalition pushes its advantage.
type PhaseMode int

// PhaseRushing modes.
const (
	// PhaseSteer requires every coalition member to have an informed free
	// slot (every honest segment shorter than min(k, l)); planning fails
	// otherwise. This is the Section 6 tightness attack.
	PhaseSteer PhaseMode = iota + 1
	// PhaseBestEffort steers the segments that can be steered and leaves
	// the rest alone; used to probe the transition region. Whenever some
	// segment cannot be steered its output disagrees with the steered
	// ones, so executions fail rather than elect the target.
	PhaseBestEffort
	// PhaseNoSteer rushes without ever steering. Under A-LEADuni's sum
	// output such a deviation stays valid; under the random function f
	// each segment reconstructs a differently-shifted input, the outputs
	// disagree, and the outcome is FAIL — a direct measurement of what f
	// buys the protocol.
	PhaseNoSteer
	// PhaseChase demonstrates Theorem 6.1's mechanism: the coalition is
	// clustered so that exactly one segment is long (≥ min(k, l), hence
	// unsteerable) and the k−1 others are singletons. Each short-segment
	// member reconstructs the long segment's input, computes its output —
	// a uniformly random value the coalition cannot influence — and
	// steers its own segment to match it. Executions stay valid, but the
	// election is unbiased: validity is saved, bias is provably lost.
	PhaseChase
)

// PhaseRushing is the rushing attack against PhaseAsyncLead (the tightness
// remark of Section 6): k = √n+3 equally spaced adversaries control the
// outcome, while for k ≤ √n/10 the very same machinery provably cannot bias
// it (Theorem 6.1).
//
// Mechanics. Adversaries never insert secrets of their own and forward data
// without the one-round buffering delay, so the data wave crosses each
// adversary instantly: by round n−k every adversary has heard every honest
// data value, and validation values v̂_1..v̂_{n−l} circulate even earlier
// (l > k). Phase validation forces one data send per round, so the freed
// budget shows up as free *rounds*: adversary a_i's sends in rounds
// (n−k, n−l_i] carry labels that its own segment I_i attributes to positions
// beyond I_i — positions no member of I_i can cross-check. Those are
// informed free coordinates of f: a_i searches values for them (O(1)
// incremental re-evaluation) until f(segment I_i's reconstructed input) hits
// the target. Different segments reconstruct different inputs, but each is
// steered to the same output, so the election is valid and forced.
//
// When some segment has length ≥ min(k, l), its adversary's commitment point
// (round n−l_i) precedes its knowledge point (round n−k): no informed slots
// exist and the segment's output stays uniform — exactly the mechanism of
// Theorem 6.1, measurable by running this attack below threshold.
type PhaseRushing struct {
	// Protocol supplies the exact f, l and m the honest processors use.
	Protocol phaselead.Protocol
	// K is the coalition size; 0 picks ⌈√n⌉+3 (the paper's √n+3).
	K int
	// Mode defaults to PhaseSteer.
	Mode PhaseMode
	// SearchCap bounds the per-segment coordinate search; 0 picks 64·n
	// tries (failure probability ≈ e^{−64} per segment with ≥ 2 slots).
	SearchCap int
}

var _ ring.Attack = PhaseRushing{}

// BatchSafe marks PhaseRushing for plan reuse (see ring.Attack): Plan
// ignores its seed, Init fully resets every planned member, and the attack
// is a comparable value, so a lane worker plans it once per target.
func (PhaseRushing) BatchSafe() {}

// Name implements ring.Attack.
func (a PhaseRushing) Name() string {
	switch a.Mode {
	case PhaseNoSteer:
		return "phase-rushing-nosteer"
	case PhaseBestEffort:
		return "phase-rushing-besteffort"
	case PhaseChase:
		return "phase-rushing-chase"
	default:
		return "phase-rushing"
	}
}

// Plan implements ring.Attack.
func (a PhaseRushing) Plan(n int, target int64, _ int64) (*ring.Deviation, error) {
	if target < 1 || target > int64(n) {
		return nil, fmt.Errorf("attacks: target %d out of range [1,%d]", target, n)
	}
	cfg, err := a.Protocol.Config(n)
	if err != nil {
		return nil, err
	}
	mode := a.Mode
	if mode == 0 {
		mode = PhaseSteer
	}
	k := a.K
	if k == 0 {
		k = SqrtK(n) + 3
	}
	limit := k
	if cfg.L < limit {
		limit = cfg.L
	}
	var (
		coalition []sim.ProcID
		dists     []int
	)
	if mode == PhaseChase {
		if k < 3 {
			return nil, fmt.Errorf("attacks: chase mode needs k ≥ 3, got %d", k)
		}
		long := n - 2*k + 1 // one long segment, k−1 singletons
		if long < limit {
			return nil, fmt.Errorf(
				"attacks: chase needs a long segment ≥ min(k,l)=%d, got %d; use PhaseSteer", limit, long)
		}
		dists = make([]int, k)
		dists[0] = long
		for i := 1; i < k; i++ {
			dists[i] = 1
		}
		var err error
		coalition, err = ring.FromDistances(dists, n, 2)
		if err != nil {
			return nil, err
		}
		dists = ring.Distances(coalition, n)
	} else {
		var err error
		coalition, err = ring.EqualSpaced(n, k)
		if err != nil {
			return nil, err
		}
		dists = ring.Distances(coalition, n)
		if mode == PhaseSteer {
			for i, li := range dists {
				if li >= limit {
					return nil, fmt.Errorf(
						"attacks: segment %d has length %d ≥ min(k,l)=%d; no informed free slot (Theorem 6.1 regime)",
						i+1, li, limit)
				}
			}
		}
	}
	searchCap := a.SearchCap
	if searchCap == 0 {
		searchCap = 64 * n
	}
	longPos, longLen := 0, 0
	if mode == PhaseChase {
		for i, li := range dists {
			if li > longLen {
				longPos, longLen = int(coalition[i]), li
			}
		}
	}
	dev := &ring.Deviation{
		Coalition:  coalition,
		Strategies: make(map[sim.ProcID]sim.Strategy, k),
	}
	// Attack trials plan a fresh deviation per trial, so per-member
	// allocations multiply by k·trials: all k members' per-position tables
	// come out of one backing array, the backward walks share one coalition
	// membership table and one backing, and chase mode's long-segment walk —
	// read-only during execution — is computed once and shared.
	isAdv := make([]bool, n+1)
	for _, c := range coalition {
		isAdv[int(c)] = true
	}
	tabs := make([]int64, 3*k*(n+1))
	walks := make([]int, 0, k*(n-k))
	var backwardLong []int
	if mode == PhaseChase {
		backwardLong = fillBackward(longPos, n, isAdv, make([]int, 0, n-k))
	}
	for i, pos := range coalition {
		adv := &phaseRushAdversary{
			cfg:       cfg,
			pos:       int(pos),
			k:         k,
			li:        dists[i],
			target:    target,
			mode:      mode,
			steer:     mode == PhaseSteer || mode == PhaseBestEffort,
			searchCap: searchCap,
		}
		adv.valueOf = tabs[0 : n+1 : n+1]
		adv.sentData = tabs[n+1 : 2*(n+1) : 2*(n+1)]
		adv.vhat = tabs[2*(n+1) : 3*(n+1) : 3*(n+1)]
		tabs = tabs[3*(n+1):]
		start := len(walks)
		walks = fillBackward(int(pos), n, isAdv, walks)
		adv.backward = walks[start:len(walks):len(walks)]
		if mode == PhaseChase {
			adv.longPos, adv.longLen = longPos, longLen
			adv.backwardLong = backwardLong
			adv.steer = int(pos) != longPos
		}
		dev.Strategies[pos] = adv
	}
	return dev, nil
}

// fillBackward appends to out the honest positions encountered walking
// backward (against the ring direction) from pos, in order: the j-th
// appended entry is the originator of the j-th data value an all-piping
// coalition member at pos receives. isAdv marks coalition membership by
// position.
func fillBackward(pos, n int, isAdv []bool, out []int) []int {
	p := pos
	for i := 1; i < n; i++ {
		p--
		if p < 1 {
			p += n
		}
		if !isAdv[p] {
			out = append(out, p)
		}
	}
	return out
}

// backwardHonest is fillBackward for one-off callers that hold a coalition
// list rather than a membership table.
func backwardHonest(pos, n int, coalition []sim.ProcID) []int {
	isAdv := make([]bool, n+1)
	for _, c := range coalition {
		isAdv[int(c)] = true
	}
	return fillBackward(pos, n, isAdv, make([]int, 0, n-len(coalition)))
}

// phaseRushAdversary is one coalition member of PhaseRushing.
type phaseRushAdversary struct {
	cfg       phaselead.Config
	pos       int
	k         int
	li        int
	target    int64
	mode      PhaseMode
	steer     bool
	searchCap int
	backward  []int

	// Chase-mode metadata: the unsteerable long segment's adversary.
	longPos      int
	longLen      int
	backwardLong []int

	round    int
	received int
	valueOf  []int64       // by honest position, −1 = not yet heard
	sentData []int64       // by round, what we sent (for f bookkeeping)
	vhat     []int64       // validation values by round
	steered  map[int]int64 // free round → chosen value (nil until computed)
	chase    int64         // chase-mode common output, once computed
	hasChase bool
}

var _ sim.Strategy = (*phaseRushAdversary)(nil)

func (p *phaseRushAdversary) Init(*sim.Context) {
	n := p.cfg.N
	if p.valueOf == nil {
		// Members built outside Plan (tests) have no pre-carved tables.
		p.valueOf = make([]int64, n+1)
		p.sentData = make([]int64, n+1)
		p.vhat = make([]int64, n+1)
	}
	for i := range p.valueOf {
		p.valueOf[i] = -1
	}
	clear(p.sentData)
	clear(p.vhat)
	p.round, p.received = 0, 0
	p.steered = nil
	p.chase, p.hasChase = 0, false
}

// pipeEnd is the last round in which this member forwards its receive: the
// earlier of its knowledge point (n−k) and its commitment point (n−l_i).
func (p *phaseRushAdversary) pipeEnd() int {
	n := p.cfg.N
	if p.li > p.k {
		return n - p.li
	}
	return n - p.k
}

// knowledgeRound is the round after which all of f's inputs are known to the
// coalition: every data value by n−k (rushing) and v̂_1..v̂_{n−l} by n−l.
func (p *phaseRushAdversary) knowledgeRound() int {
	n := p.cfg.N
	kr := n - p.k
	if n-p.cfg.L > kr {
		kr = n - p.cfg.L
	}
	return kr
}

func (p *phaseRushAdversary) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	p.received++
	if p.received%2 == 1 {
		p.dataStep(ctx, value)
	} else {
		p.validationStep(ctx, value)
	}
}

func (p *phaseRushAdversary) dataStep(ctx *sim.Context, value int64) {
	n := p.cfg.N
	p.round++
	r := p.round
	if r <= n-p.k {
		p.valueOf[p.backward[r-1]] = ring.Mod(value, n)
	}
	var out int64
	switch {
	case r <= p.pipeEnd():
		out = ring.Mod(value, n)
	case r <= n-p.li: // free slot
		if p.steer && r > p.knowledgeRound() {
			if p.steered == nil {
				goal := p.target
				if p.mode == PhaseChase {
					p.chase, p.hasChase = p.longOutput(), true
					goal = p.chase
				}
				p.computeSteering(r, goal)
			}
			if v, ok := p.steered[r]; ok {
				out = v
				break
			}
		}
		out = p.blindValue(r)
	default: // replay: the segment's true secrets, farthest first
		out = p.valueOf[p.cfg.Label(p.pos+1-r)]
	}
	p.sentData[r] = out
	ctx.Send(out)
	if r == p.pos {
		// Our validator round: commit to an arbitrary validation value.
		p.vhat[p.pos] = 0
		ctx.Send(0)
	}
}

func (p *phaseRushAdversary) validationStep(ctx *sim.Context, value int64) {
	r := p.round
	if r != p.pos {
		p.vhat[r] = value
		ctx.Send(value)
	}
	if r == p.cfg.N {
		ctx.Terminate(p.terminateValue())
	}
}

// terminateValue is the output this member terminates with: the forced
// target when steering, or (in chase mode) the long segment's output, which
// the member either computed while steering or — for the long-segment member
// itself — reads off its own completed stream.
func (p *phaseRushAdversary) terminateValue() int64 {
	if p.mode != PhaseChase {
		return p.target
	}
	if p.hasChase {
		return p.chase
	}
	if p.pos == p.longPos {
		return p.ownOutput()
	}
	return p.target // steering never ran; execution will fail anyway
}

// ownOutput evaluates f on this member's segment's reconstruction, i.e. on
// the member's complete sent stream plus the circulating validation prefix.
func (p *phaseRushAdversary) ownOutput() int64 {
	n, f := p.cfg.N, p.cfg.F
	var acc uint64
	for r := 1; r <= n; r++ {
		acc ^= f.CoordData(p.cfg.Label(p.pos+1-r), p.sentData[r])
	}
	for j := 1; j <= n-p.cfg.L; j++ {
		acc ^= f.CoordVal(j, p.vhat[j])
	}
	return f.Finalize(acc)
}

// longOutput reconstructs the long segment's input from globally known
// values — the long member's pipe forwards the honest values behind it, its
// replay re-emits its segment — and evaluates f on it. Every coalition
// member can compute this as soon as it knows all data values.
func (p *phaseRushAdversary) longOutput() int64 {
	n, f := p.cfg.N, p.cfg.F
	var acc uint64
	for r := 1; r <= n; r++ {
		lab := p.cfg.Label(p.longPos + 1 - r)
		var v int64
		if r <= n-p.longLen {
			v = p.valueOf[p.backwardLong[r-1]]
		} else {
			v = p.valueOf[lab]
		}
		acc ^= f.CoordData(lab, v)
	}
	for j := 1; j <= n-p.cfg.L; j++ {
		acc ^= f.CoordVal(j, p.vhat[j])
	}
	return f.Finalize(acc)
}

// blindValue fills a free slot before the knowledge point (or after a failed
// search): the true value when the slot's label is honest, zero otherwise.
func (p *phaseRushAdversary) blindValue(r int) int64 {
	label := p.cfg.Label(p.pos + 1 - r)
	if v := p.valueOf[label]; v >= 0 {
		return v
	}
	return 0
}

// computeSteering fixes the values of the remaining informed free rounds
// rStart..n−l_i so that f evaluated on segment I_i's reconstructed input
// equals goal. Everything else in that input is already determined: past
// sends, the replay tail, and the circulating validation prefix.
func (p *phaseRushAdversary) computeSteering(rStart int, goal int64) {
	p.steered = map[int]int64{}
	n := p.cfg.N
	f := p.cfg.F
	freeEnd := n - p.li
	var acc uint64
	for r := 1; r <= n; r++ {
		if r >= rStart && r <= freeEnd {
			continue // free coordinate, chosen below
		}
		label := p.cfg.Label(p.pos + 1 - r)
		var v int64
		switch {
		case r < rStart:
			v = p.sentData[r]
		default: // replay rounds
			v = p.valueOf[label]
		}
		acc ^= f.CoordData(label, v)
	}
	for j := 1; j <= n-p.cfg.L; j++ {
		acc ^= f.CoordVal(j, p.vhat[j])
	}
	labels := make([]int, 0, freeEnd-rStart+1)
	for r := rStart; r <= freeEnd; r++ {
		labels = append(labels, p.cfg.Label(p.pos+1-r))
	}
	values, ok := searchCoordinates(f, acc, labels, goal, p.searchCap)
	if !ok {
		return // leave steered empty: fall back to blind values
	}
	for i, r := 0, rStart; r <= freeEnd; i, r = i+1, r+1 {
		p.steered[r] = values[i]
	}
}

// searchCoordinates looks for data values at the given labels that make the
// function finalize to target. The t-th assignment tried is t's base-n
// digits, labels[0] least significant, and the search commits to the
// smallest satisfying t. With one label the search is exhaustive over [n]
// (success probability ≈ 1−1/e for a random f); with two or more, at most
// cap assignments are tried and cap = 64n tries fail with probability
// ≈ e^{−64}.
//
// The scan walks t in blocks of n that share every digit but the lowest:
// each block folds its higher digits into the accumulator once, so a try
// costs one CoordData and one Finalize, with no per-try allocation.
func searchCoordinates(f *randfunc.Func, acc uint64, labels []int, target int64, cap int) ([]int64, bool) {
	n := f.N()
	c := len(labels)
	if c == 0 {
		return nil, false
	}
	limit := cap
	if c == 1 {
		limit = n // exhaustive over the single coordinate
	}
	for block := 0; block*n < limit; block++ {
		high := acc
		rem := block
		for _, lab := range labels[1:] {
			high ^= f.CoordData(lab, int64(rem%n))
			rem /= n
		}
		tries := min(n, limit-block*n)
		for d := 0; d < tries; d++ {
			if f.Finalize(high^f.CoordData(labels[0], int64(d))) != target {
				continue
			}
			values := make([]int64, c)
			values[0], rem = int64(d), block
			for i := 1; i < c; i++ {
				values[i] = int64(rem % n)
				rem /= n
			}
			return values, true
		}
	}
	return nil, false
}
