// Package committee implements hierarchical committee-sharded fair leader
// election: the n participants are partitioned into g = ⌊√n⌋ contiguous
// groups of size ≈ √n, each group elects a local winner with one of the
// paper's certified-fair ring protocols (Basic-LEAD or A-LEADuni), and a
// second-level sum-circulation among the g group delegates selects the
// winning group bias-resistantly. The final leader is the winning group's
// local winner.
//
// The composition preserves exact uniformity for any partition: the
// level-2 circulation sums g independent secrets drawn uniformly from
// [0, n) and reduces modulo n, so the residue X is uniform over [0, n);
// the winning group is the one whose contiguous position interval contains
// X, chosen with probability sizeⱼ/n, and its uniform local winner then
// lands on any fixed participant with probability (sizeⱼ/n)·(1/sizeⱼ) = 1/n.
//
// The payoff is cost, not fairness: a flat ring election circulates every
// secret past every participant — Θ(n²) messages — while the composed
// election runs g + 1 rings of size ≈ √n, for Θ(n^1.5) messages total, which
// is what makes n = 10⁴–10⁵ tractable (see MessagesPerTrial). Each group is
// simulated as its own tiny network, so the per-event cost is bounded by the
// active group's size, never by n: idle groups cost zero.
//
// With A-LEADuni groups, a Runner simulates every block of up to
// alead.Lanes (16) consecutive honest groups of one size as one lane
// execution (ring.LaneRunner): a single ring whose messages carry one value
// per group, which pays the kernel's per-message cost once for the block. An
// honest A-LEADuni schedule does not depend on its values, so each lane's
// result is exactly that group's scalar run; the differential tests pin the
// composed trial against a composition of per-group scalar runs. A size's
// last block may be partial (4 of 100 groups at n = 10⁴): it runs padded,
// and its unused lanes are never folded. A group runs alone only when it is
// its size's only group, or when it is the attacked group.
//
// The composition inherits the inner protocol's resilience. With Basic-LEAD
// groups, the single delegate-rush adversary (see Election.AttackRunner)
// forces any target with probability 1, exactly as Claim B.1 breaks the flat
// protocol. With A-LEADuni groups, the same adversary only stalls its own
// group's buffered circulation — every trial fails, no bias is gained.
package committee

import (
	"fmt"

	"repro/internal/attacks"
	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Inner protocol disciplines. The discipline selects both the in-group
// protocol and the level-2 circulation style: Basic-LEAD groups compose
// through an immediate-forward delegate ring (rushable, Claim B.1 style),
// A-LEADuni groups through a buffer-of-one delegate ring (rushing stalls).
const (
	// InnerBasic runs Basic-LEAD inside each group.
	InnerBasic = "basic"
	// InnerALead runs A-LEADuni inside each group.
	InnerALead = "a-lead"
)

// Seed tags deriving the per-trial sub-election seeds. Every sub-network of
// a composed trial draws an independently mixed seed from the trial seed
// alone, so trials shard over the fleet exactly like flat batches and a
// recorded committee run is reproducible from (scenario, seed, trial index).
const (
	seedTagGroup  uint64 = 0x600D
	seedTagLevel2 uint64 = 0x1EAD
)

// GroupSeed derives the seed of group j's in-group election for one trial.
func GroupSeed(trialSeed int64, j int) int64 {
	return int64(sim.Mix64(uint64(trialSeed), uint64(j)+seedTagGroup))
}

// Level2Seed derives the seed of the delegate circulation for one trial.
func Level2Seed(trialSeed int64) int64 {
	return int64(sim.Mix64(uint64(trialSeed), seedTagLevel2))
}

// Election is one committee-sharded election configuration: the partition of
// [1..n] into contiguous √n-sized groups and the inner protocol discipline.
// An Election is immutable and safe for concurrent use; per-worker execution
// state lives in Runners.
type Election struct {
	n     int
	inner string
	proto ring.Protocol

	g      int   // number of groups, ⌊√n⌋
	sizes  []int // sizes[j] is group j's size, j in [0, g)
	starts []int // starts[j] participants precede group j; group j covers
	// global positions [starts[j]+1, starts[j]+sizes[j]]
}

// New builds the committee election over n participants with the given inner
// discipline (InnerBasic or InnerALead). It needs n ≥ 4 so that both levels
// are genuine rings: g = ⌊√n⌋ ≥ 2 groups of ≥ 2 members each.
func New(n int, inner string) (*Election, error) {
	if n < 4 {
		return nil, fmt.Errorf("committee: need n ≥ 4 for √n-sized groups, got %d", n)
	}
	var proto ring.Protocol
	switch inner {
	case InnerBasic:
		proto = basiclead.New()
	case InnerALead:
		proto = alead.New()
	default:
		return nil, fmt.Errorf("committee: unknown inner discipline %q (want %q or %q)",
			inner, InnerBasic, InnerALead)
	}
	g := isqrt(n)
	base, rem := n/g, n%g
	e := &Election{n: n, inner: inner, proto: proto, g: g,
		sizes: make([]int, g), starts: make([]int, g)}
	pos := 0
	for j := 0; j < g; j++ {
		size := base
		if j < rem {
			size++
		}
		e.sizes[j], e.starts[j] = size, pos
		pos += size
	}
	return e, nil
}

// isqrt returns ⌊√n⌋ exactly.
func isqrt(n int) int {
	g := 1
	for (g+1)*(g+1) <= n {
		g++
	}
	return g
}

// Name identifies the composed protocol in reports.
func (e *Election) Name() string {
	if e.inner == InnerALead {
		return "Committee(A-LEADuni)"
	}
	return "Committee(Basic-LEAD)"
}

// N returns the number of participants.
func (e *Election) N() int { return e.n }

// Groups returns the number of groups g = ⌊√n⌋.
func (e *Election) Groups() int { return e.g }

// GroupSizes returns a copy of the per-group sizes.
func (e *Election) GroupSizes() []int {
	return append([]int(nil), e.sizes...)
}

// GroupOf returns the index of the group containing global position pos
// (1-based). It panics on positions outside [1, n].
func (e *Election) GroupOf(pos int64) int {
	if pos < 1 || pos > int64(e.n) {
		panic(fmt.Sprintf("committee: position %d outside [1,%d]", pos, e.n))
	}
	// The first n%g groups have size base+1 and come first, so the group
	// index is a two-piece division — no search needed.
	base, rem := e.n/e.g, e.n%e.g
	p := int(pos) - 1
	if p < rem*(base+1) {
		return p / (base + 1)
	}
	return rem + (p-rem*(base+1))/base
}

// MessagesPerTrial returns the delivered-message count of one successful
// composed trial: Σⱼ sizeⱼ² for the in-group circulations, g² for the
// delegate circulation, and g + n for the winner announcements (each
// delegate reports its group winner into the delegate ring, and the final
// leader is broadcast once around the full ring). The flat protocols cost n²
// on the same accounting, so the composed/flat ratio is ≈ 2/√n.
func (e *Election) MessagesPerTrial() int {
	total := 0
	for _, s := range e.sizes {
		total += s * s
	}
	return total + e.g*e.g + e.g + e.n
}

// Runner returns a fresh honest-execution runner. Runners are single-
// goroutine workspaces: the trial engine builds one per work-claim chunk.
func (e *Election) Runner() *Runner {
	r, err := e.runner(0)
	if err != nil {
		// Honest runners cannot fail construction: the protocols accept any
		// n ≥ 2 and New validated the partition.
		panic("committee: " + err.Error())
	}
	return r
}

// AttackRunner returns a runner in which the delegate of the group
// containing target deviates at both levels to force target's election: it
// runs the Claim B.1 withhold-and-cancel attack inside its own group
// (steering the group winner onto target) and the analogous rush on the
// delegate circulation (steering the winning-group residue onto target's
// interval). Against InnerBasic the coalition of one succeeds with
// probability 1; against InnerALead both circulations are buffered, the
// withheld messages never release, and every trial stalls.
func (e *Election) AttackRunner(target int64) (*Runner, error) {
	if target < 1 || target > int64(e.n) {
		return nil, fmt.Errorf("committee: target %d outside [1,%d]", target, e.n)
	}
	return e.runner(target)
}

// runner builds the shared runner state; target 0 means honest.
func (e *Election) runner(target int64) (*Runner, error) {
	base, rem := e.n/e.g, e.n%e.g
	r := &Runner{
		e:          e,
		arenaSmall: sim.NewArena(),
		arenaL2:    sim.NewArena(),
		winners:    make([]int64, e.g),
		target:     target,
	}
	var err error
	if r.small, err = e.proto.Strategies(base); err != nil {
		return nil, fmt.Errorf("committee: inner strategies: %w", err)
	}
	if rem > 0 {
		r.arenaBig = sim.NewArena()
		if r.big, err = e.proto.Strategies(base + 1); err != nil {
			return nil, fmt.Errorf("committee: inner strategies: %w", err)
		}
	}
	if e.inner == InnerALead {
		// Lane runners for every size with at least two groups: a lone
		// group runs faster alone than as a padded lane block.
		if e.g-rem >= 2 {
			if r.lanesSmall, err = ring.NewLaneRunner(alead.New(), base, false); err != nil {
				return nil, fmt.Errorf("committee: inner lanes: %w", err)
			}
		}
		if rem >= 2 {
			if r.lanesBig, err = ring.NewLaneRunner(alead.New(), base+1, false); err != nil {
				return nil, fmt.Errorf("committee: inner lanes: %w", err)
			}
		}
	}
	r.l2 = e.level2Strategies()
	if target != 0 {
		r.atkGroup = e.GroupOf(target)
		r.atkLocal = target - int64(e.starts[r.atkGroup])
		// The level-2 deviation is batch-safe (Init truncates its receive
		// log), so one overlaid delegate vector serves every trial.
		r.l2Atk = append([]sim.Strategy(nil), r.l2...)
		r.l2Atk[r.atkGroup] = &sumRush{ring: e.g, valRange: e.n, target: target - 1}
	}
	return r, nil
}

// level2Strategies builds the honest delegate-circulation vector: a ring of
// g processors summing secrets drawn from [0, n) — immediate-forward under
// InnerBasic, buffer-of-one under InnerALead, mirroring the inner
// discipline's flow control so the composed protocol rushes (or resists)
// exactly as its components do.
func (e *Election) level2Strategies() []sim.Strategy {
	vec := make([]sim.Strategy, e.g)
	if e.inner == InnerALead {
		vec[0] = &sumOrigin{ring: e.g, valRange: e.n}
		for i := 1; i < e.g; i++ {
			vec[i] = &sumBuffered{ring: e.g, valRange: e.n}
		}
		return vec
	}
	for i := range vec {
		vec[i] = &sumForward{ring: e.g, valRange: e.n}
	}
	return vec
}

// Runner executes composed trials on private recycled arenas: one per group
// size (the partition has at most two) and one for the delegate ring, so a
// chunk of trials rebuilds no topology and keeps every sub-network's working
// set at O(√n). It belongs to one goroutine; the engine builds one per
// work-claim chunk. The honest in-group strategy vectors are shared by all
// groups of a size — both inner protocols are batch-safe, so Init fully
// re-establishes state between group runs — and so are the lane runners,
// which run on the same per-size arenas.
type Runner struct {
	e          *Election
	arenaBig   *sim.Arena // groups of size base+1 (nil when n ≡ 0 mod g)
	arenaSmall *sim.Arena // groups of size base
	arenaL2    *sim.Arena // the delegate ring
	big, small []sim.Strategy
	l2         []sim.Strategy
	winners    []int64

	// Lane runners for blocks of up to alead.Lanes consecutive honest
	// groups of one size (InnerALead only; nil for a size with one group).
	lanesBig, lanesSmall *ring.LaneRunner

	// Attack state; target 0 means honest.
	target   int64
	atkGroup int
	atkLocal int64
	l2Atk    []sim.Strategy // delegate vector with the sumRush overlay
}

// Winners returns the per-group global winner positions of the last
// successful Run, indexed by group. The slice aliases runner scratch and is
// invalidated by the next Run.
func (r *Runner) Winners() []int64 { return r.winners }

// Run executes one composed trial: the g in-group elections in group order,
// then the delegate circulation, composing the sub-results into one
// sim.Result. Under InnerALead every block of up to alead.Lanes consecutive
// honest groups of one size runs as one lane execution, which returns
// exactly the results of the block's scalar group runs; a size's only group,
// and an attacked group, run alone (see laneBlock). Sub-elections fail fast
// — the first failing group's reason becomes the trial's reason, with
// message counters covering the groups up to and including it. The
// announcement traffic of a successful trial (g delegate reports plus the
// ring-wide broadcast of the final leader) carries no election-relevant
// choices, so it is accounted analytically rather than simulated. The
// returned Result has nil Outputs/Statuses: per-processor state of a
// composed trial lives in the sub-networks.
func (r *Runner) Run(trialSeed int64) (sim.Result, error) {
	e := r.e
	var agg sim.Result
	for j := 0; j < e.g; {
		if lanes, arena, count := r.laneBlock(j); lanes != nil {
			// A partial block's unused lanes run under seed 0 and are
			// never folded.
			var seeds [alead.Lanes]int64
			for l := range count {
				seeds[l] = GroupSeed(trialSeed, j+l)
			}
			// Honest A-LEADuni lanes never diverge: their one
			// value-dependent decision ends a processor either way.
			block, _, err := lanes.Run(arena, seeds, nil)
			if err != nil {
				return sim.Result{}, fmt.Errorf("committee: groups %d-%d: %w", j+1, j+count, err)
			}
			for l := range count {
				if r.fold(&agg, j+l, &block[l]) {
					return agg, nil
				}
			}
			j += count
			continue
		}
		size := e.sizes[j]
		arena, vec := r.arenaSmall, r.small
		if size > e.n/e.g {
			arena, vec = r.arenaBig, r.big
		}
		spec := ring.Spec{N: size, Seed: GroupSeed(trialSeed, j)}
		if r.target != 0 && j == r.atkGroup {
			// The in-group deviation is planned per trial (the adversary's
			// receive log is per-execution state); RunVector overlays it
			// on arena scratch, leaving the shared honest vector untouched.
			var err error
			if spec.Deviation, err = (attacks.BasicSingle{Position: 1}).Plan(size, r.atkLocal, spec.Seed); err != nil {
				return sim.Result{}, fmt.Errorf("committee: group %d attack: %w", j+1, err)
			}
		}
		res, err := ring.RunVector(spec, vec, arena)
		if err != nil {
			return sim.Result{}, fmt.Errorf("committee: group %d: %w", j+1, err)
		}
		if r.fold(&agg, j, &res) {
			return agg, nil
		}
		j++
	}
	l2 := r.l2
	if r.target != 0 {
		l2 = r.l2Atk
	}
	res, err := ring.RunVector(ring.Spec{N: e.g, Seed: Level2Seed(trialSeed)}, l2, r.arenaL2)
	if err != nil {
		return sim.Result{}, fmt.Errorf("committee: delegate ring: %w", err)
	}
	agg.Delivered += res.Delivered
	agg.Dropped += res.Dropped
	agg.Steps += res.Steps
	if res.Failed {
		agg.Failed, agg.Reason = true, res.Reason
		return agg, nil
	}
	if res.Output < 0 || res.Output >= int64(e.n) {
		agg.Failed, agg.Reason = true, sim.FailMismatch
		return agg, nil
	}
	agg.Output = r.winners[e.GroupOf(res.Output+1)]
	agg.Delivered += e.g + e.n
	return agg, nil
}

// laneBlock returns the lane runner and arena for the block starting at
// group j, and the number of groups it covers: up to alead.Lanes consecutive
// groups of j's size, stopping short of the attacked group. It returns a nil
// runner when group j runs alone: its size has no lane runner, or it is the
// attacked group.
func (r *Runner) laneBlock(j int) (*ring.LaneRunner, *sim.Arena, int) {
	e := r.e
	// The n mod g groups of size base+1 come first, so a size's groups form
	// one run: [0, rem) for the big size, [rem, g) for the small one.
	rem := e.n % e.g
	lanes, arena, end := r.lanesSmall, r.arenaSmall, e.g
	if j < rem {
		lanes, arena, end = r.lanesBig, r.arenaBig, rem
	}
	if r.target != 0 && r.atkGroup >= j && r.atkGroup < end {
		end = r.atkGroup
	}
	if lanes == nil || j == end {
		return nil, nil, 0
	}
	return lanes, arena, min(end-j, alead.Lanes)
}

// fold adds group j's result to the trial aggregate and records its winner.
// It reports whether the trial has failed at group j.
func (r *Runner) fold(agg *sim.Result, j int, res *sim.Result) bool {
	agg.Delivered += res.Delivered
	agg.Dropped += res.Dropped
	agg.Steps += res.Steps
	if res.Failed {
		agg.Failed, agg.Reason = true, res.Reason
		return true
	}
	if res.Output < 1 || res.Output > int64(r.e.sizes[j]) {
		agg.Failed, agg.Reason = true, sim.FailMismatch
		return true
	}
	r.winners[j] = int64(r.e.starts[j]) + res.Output
	return false
}
