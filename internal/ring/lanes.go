package ring

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/sim"
)

// Lanes is the lane width of a lane execution: the number of trials one
// simulated ring carries at once.
const Lanes = 16

// allLanes has one bit per lane.
const allLanes = 1<<Lanes - 1

// LaneProtocol is a Protocol with a lane form: hand-written honest
// strategies whose messages carry one value per lane, so that Lanes
// executions under different seeds share one simulated ring and split back
// into the Results their scalar runs return. The honest schedule must not
// depend on the values, apart from aborts, which every lane of a processor
// must take at the same step (see LaneState.Settle). HonestChunkJob and
// AttackChunkJob run every whole block of Lanes consecutive trials of an
// eligible chunk as one lane execution.
//
// A LaneProtocol must be comparable: a worker's arena keeps its runner keyed
// by the protocol value and the ring size.
type LaneProtocol interface {
	Protocol
	// LaneStrategies returns the honest lane vector for rings of n
	// processors, sharing st. With coalition set, lockstep adapters will
	// take the coalition's positions, so every message must pass through
	// st's slot ring (LaneState.Send and LaneState.Recv), as theirs do. A
	// nil vector with a nil error means the protocol has no such lane form
	// for that ring: its blocks run scalar.
	LaneStrategies(n int, st *LaneState, coalition bool) ([]sim.Strategy, error)
}

// LaneState is what the processors of one lane execution share: the lane
// seeds, the payload slots, and each lane's outputs and statuses.
//
// A message's payload is the index of its slot, and the slot holds the
// message's value in every lane. Lane values are int32, so a slot is 64
// bytes, which the compiler moves with a few vector moves where 16 int64s
// would cost a runtime.duffcopy call. Slots form a FIFO ring: the FIFO
// schedule delivers messages in send order, so a delivery of slot s means
// every slot sent before s has been delivered or dropped, and any number of
// messages may be in flight.
type LaneState struct {
	// Seeds[l] is lane l's trial seed. A processor draws lane l's
	// randomness from sim.NewStream(Seeds[l], id), the stream ctx.Rand()
	// draws from in the scalar run.
	Seeds [Lanes]int64

	slots      [][Lanes]int32 // power-of-two ring, indexed by absolute slot
	head, tail int64          // oldest live slot, next slot to send

	outputs  [Lanes][]int64      // outputs[l][i]: processor i's output in lane l
	statuses [Lanes][]sim.Status // statuses[l][i]: its status in lane l
	res      [Lanes]sim.Result
	diverged bool
}

// NewLaneState returns the shared state of lane executions on rings of n
// processors.
func NewLaneState(n int) *LaneState {
	st := new(LaneState)
	st.alloc(n)
	return st
}

// alloc sizes the state's slots and outcome buffers for rings of n
// processors.
func (st *LaneState) alloc(n int) {
	st.slots = make([][Lanes]int32, 16)
	outs := make([]int64, Lanes*(n+1))
	stats := make([]sim.Status, Lanes*(n+1))
	for l := range Lanes {
		lo, hi := l*(n+1), (l+1)*(n+1)
		st.outputs[l], st.statuses[l] = outs[lo:hi:hi], stats[lo:hi:hi]
	}
}

// reset readies the state for a lane execution under seeds.
func (st *LaneState) reset(seeds [Lanes]int64) {
	st.Seeds, st.head, st.tail, st.diverged = seeds, 0, 0, false
}

// Begin marks processor id running with output 0 in every lane.
func (st *LaneState) Begin(id sim.ProcID) {
	for l := range st.outputs {
		st.outputs[l][id], st.statuses[l][id] = 0, sim.StatusRunning
	}
}

// End ends processor id in lane l: terminated with output, or aborted with
// output 0, as Abort leaves a scalar processor.
func (st *LaneState) End(l int, id sim.ProcID, output int64, aborted bool) {
	if aborted {
		st.outputs[l][id], st.statuses[l][id] = 0, sim.StatusAborted
		return
	}
	st.outputs[l][id], st.statuses[l][id] = output, sim.StatusTerminated
}

// Send sends one lane message on ctx's outgoing link: vals, copied into the
// next slot.
func (st *LaneState) Send(ctx *sim.Context, vals *[Lanes]int32) {
	if st.tail-st.head == int64(len(st.slots)) {
		st.grow()
	}
	v := *vals
	st.slots[st.tail&int64(len(st.slots)-1)] = v
	ctx.Send(st.tail)
	st.tail++
}

// Recv returns the values of the delivered message with the given payload.
// The slot stays live until the next delivery, so the receiving processor
// may send from it.
func (st *LaneState) Recv(payload int64) *[Lanes]int32 {
	st.head = payload
	return &st.slots[payload&int64(len(st.slots)-1)]
}

// grow doubles the slot ring, re-slotting the live slots at their absolute
// positions under the new mask.
func (st *LaneState) grow() {
	old := st.slots
	grown := make([][Lanes]int32, 2*len(old))
	for s := st.head; s < st.tail; s++ {
		grown[s&int64(len(grown)-1)] = old[s&int64(len(old)-1)]
	}
	st.slots = grown
}

// Settle applies a check that every lane of processor ctx.Self() makes at
// the same step, and reports whether the processor goes on. bad has bit l
// set where lane l fails the check, that is, where the scalar run aborts.
// No failing lane: the processor goes on. Every lane failing: every lane
// aborts at this step, and so does the processor on the shared ring. Some
// lanes failing: the lanes part ways, and the block diverges.
func (st *LaneState) Settle(ctx *sim.Context, bad uint64) bool {
	switch bad {
	case 0:
		return true
	case allLanes:
		id := ctx.Self()
		for l := range Lanes {
			st.End(l, id, 0, true)
		}
		ctx.Abort()
	default:
		st.diverge(ctx)
	}
	return false
}

// diverge marks the lane execution diverged: its lanes no longer share one
// schedule, so its results mean nothing and the block reruns scalar. The
// processor aborts on the shared ring, which ends the execution soon.
func (st *LaneState) diverge(ctx *sim.Context) {
	st.diverged = true
	ctx.Abort()
}

// Split assembles the per-lane results of a finished lane execution from
// the shared ring's result. Outputs and Statuses come from the lane;
// Failed, Reason and Output follow sim.Result.Classify, and a step-limit
// stop fails every lane. Delivered, Dropped and Steps belong to every lane,
// because the lanes share one schedule. The results alias the state and are
// invalidated by its next execution.
func (st *LaneState) Split(net sim.Result) []sim.Result {
	stepLimited := net.Reason == sim.FailStepLimit
	for l := range st.res {
		res := &st.res[l]
		*res = sim.Result{
			Outputs:   st.outputs[l],
			Statuses:  st.statuses[l],
			Delivered: net.Delivered,
			Dropped:   net.Dropped,
			Steps:     net.Steps,
		}
		res.Classify(stepLimited)
	}
	return st.res[:]
}

// LaneRunner runs lane executions of one lane protocol on rings of one
// size. It belongs to one goroutine at a time; its strategy vector is built
// once and re-initialized by Init on every Run, like the scalar vector of a
// batched trial loop.
type LaneRunner struct {
	n         int
	joinable  bool // the vector admits lockstep adapters
	st        *LaneState
	honest    []sim.Strategy
	vec       []sim.Strategy
	coalition []sim.ProcID // the positions vec gives to adapters
	adapters  []*lockstep
}

// NewLaneRunner builds a lane runner of p for rings of n processors: one
// that runs coalitions through lockstep adapters when coalition is set. It
// returns a nil runner and no error where p has no such lane form. The
// protocol rejects a ring before the state's buffers are allocated.
func NewLaneRunner(p LaneProtocol, n int, coalition bool) (*LaneRunner, error) {
	st := new(LaneState)
	vec, err := p.LaneStrategies(n, st, coalition)
	if err != nil || vec == nil {
		return nil, err
	}
	if len(vec) != n {
		return nil, fmt.Errorf("ring: %s returned %d lane strategies for n=%d", p.Name(), len(vec), n)
	}
	st.alloc(n)
	return &LaneRunner{n: n, joinable: coalition, st: st, honest: vec, vec: slices.Clone(vec)}, nil
}

// Run executes one lane execution on the caller's arena: lane l runs under
// seeds[l], honest when devs is nil, and otherwise with devs[l]'s strategies
// at the coalition's positions, which every devs[l] must share. Result l
// then equals RunArena's for lane l's FIFO run. ok is false when the lanes
// diverged; the block must then rerun scalar. The results alias runner
// memory and are invalidated by the next Run.
func (r *LaneRunner) Run(arena *sim.Arena, seeds [Lanes]int64, devs *[Lanes]*Deviation) (results []sim.Result, ok bool, err error) {
	if err := r.seat(devs); err != nil {
		return nil, false, err
	}
	r.st.reset(seeds)
	// The network's own seed only keys processor streams the lane
	// strategies never draw from: each lane draws from its own seed.
	net, err := RunVector(Spec{N: r.n}, r.vec, arena)
	if err != nil {
		return nil, false, fmt.Errorf("ring: lane ring: %w", err)
	}
	if r.st.diverged {
		return nil, false, nil
	}
	return r.st.Split(net), true, nil
}

// seat puts lockstep adapters running devs at the coalition's positions of
// the vector, or restores the honest vector when devs is nil.
func (r *LaneRunner) seat(devs *[Lanes]*Deviation) error {
	if devs == nil {
		if r.coalition != nil {
			copy(r.vec, r.honest)
			r.coalition = nil
		}
		return nil
	}
	if !r.joinable {
		return errors.New("ring: lane runner built without coalition support")
	}
	coalition := devs[0].Coalition
	if !slices.Equal(coalition, r.coalition) {
		copy(r.vec, r.honest)
		for len(r.adapters) < len(coalition) {
			r.adapters = append(r.adapters, &lockstep{st: r.st, n: r.n})
		}
		for i, p := range coalition {
			r.vec[p-1] = r.adapters[i]
		}
		r.coalition = append(r.coalition[:0], coalition...)
	}
	for i, p := range coalition {
		a := r.adapters[i]
		for l, dev := range devs {
			a.strats[l] = dev.Strategies[p]
		}
	}
	return nil
}

// lockstep runs one coalition member's Lanes scalar strategies side by
// side, lane l's on a recording backend seeded with lane l's seed, as its
// scalar run seeds it. After each step it checks that the lanes kept in
// step: every lane made the same number of sends, every lane ended
// (Terminate and Abort alike) or none did, and every sent value fits an
// int32. Then the step's sends go out as lane messages, and the member ends
// on the shared ring when its lanes end. Anything else diverges the block.
type lockstep struct {
	st     *LaneState
	n      int
	strats [Lanes]sim.Strategy
	rec    [Lanes]laneRecorder
	ctxs   [Lanes]sim.Context
}

var _ sim.Strategy = (*lockstep)(nil)

// Init wakes every lane's strategy on a fresh recorder.
func (a *lockstep) Init(ctx *sim.Context) {
	id := ctx.Self()
	a.st.Begin(id)
	for l, s := range a.strats {
		a.rec[l] = laneRecorder{n: a.n, sends: a.rec[l].sends[:0]}
		a.ctxs[l] = sim.NewContext(&a.rec[l], id, a.st.Seeds[l])
		s.Init(&a.ctxs[l])
	}
	a.emit(ctx)
}

// Receive hands each lane's strategy its lane's value.
func (a *lockstep) Receive(ctx *sim.Context, from sim.ProcID, payload int64) {
	in := a.st.Recv(payload)
	for l, s := range a.strats {
		rec := &a.rec[l]
		rec.sends = rec.sends[:0]
		rec.received++
		s.Receive(&a.ctxs[l], from, int64(in[l]))
	}
	a.emit(ctx)
}

// emit checks the lockstep rule over the step just recorded, sends the
// step's lane messages, and ends the member when its lanes ended.
func (a *lockstep) emit(ctx *sim.Context) {
	first := &a.rec[0]
	for l := range a.rec {
		rec := &a.rec[l]
		if rec.foreign || len(rec.sends) != len(first.sends) || rec.ended != first.ended {
			a.st.diverge(ctx)
			return
		}
	}
	for j := range first.sends {
		var vals [Lanes]int32
		for l := range a.rec {
			v := a.rec[l].sends[j]
			if v != int64(int32(v)) {
				a.st.diverge(ctx)
				return
			}
			vals[l] = int32(v)
		}
		a.st.Send(ctx, &vals)
	}
	if first.ended {
		id := ctx.Self()
		for l := range a.rec {
			a.st.End(l, id, a.rec[l].output, a.rec[l].aborted)
		}
		ctx.Terminate(0)
	}
}

// laneRecorder is the sim.Backend one lane's scalar strategy runs on inside
// a lockstep adapter. It records the strategy's sends and its end instead
// of delivering them, and counts sends and receives as the Network does:
// nothing after the end counts.
type laneRecorder struct {
	n              int
	sends          []int64 // this step's sends
	sent, received int
	ended, aborted bool
	output         int64
	foreign        bool // a SendTo, which lanes do not carry
}

var _ sim.Backend = (*laneRecorder)(nil)

func (b *laneRecorder) Send(_ sim.ProcID, value int64) {
	if !b.ended {
		b.sent++
		b.sends = append(b.sends, value)
	}
}

func (b *laneRecorder) SendTo(sim.ProcID, sim.ProcID, int64) {
	if !b.ended {
		b.foreign = true
	}
}

func (b *laneRecorder) Terminate(_ sim.ProcID, output int64, aborted bool) {
	if !b.ended {
		b.ended, b.aborted, b.output = true, aborted, output
	}
}

func (b *laneRecorder) Sent(sim.ProcID) int     { return b.sent }
func (b *laneRecorder) Received(sim.ProcID) int { return b.received }
func (b *laneRecorder) Size() int               { return b.n }

// laneBlocks and laneDiverged count the lane blocks the chunk jobs ran and
// the ones that diverged and reran scalar, over the process's lifetime.
var laneBlocks, laneDiverged atomic.Int64

// LaneBlocks reports how many lane executions HonestChunkJob and
// AttackChunkJob have run in this process, and how many of them diverged
// and reran scalar. A family that always diverges shows up here instead of
// silently running scalar.
func LaneBlocks() (ran, diverged int64) { return laneBlocks.Load(), laneDiverged.Load() }

// laneKey keys what a worker's arena keeps for one lane protocol and ring
// size.
type laneKey struct {
	p LaneProtocol
	n int
}

// laneWork is the value kept under a laneKey: an honest runner and one that
// seats coalitions, each built on first use and nil where the protocol has
// no such lane form, and a BatchSafe attack's reused plans. Honest and
// attack chunks of one protocol and size share it, so neither evicts the
// other's runner.
type laneWork struct {
	key     laneKey
	runners [2]*LaneRunner // [0] honest, [1] seating coalitions
	built   [2]bool
	planFor planKey
	plans   *[Lanes]*Deviation
}

// planKey names the BatchSafe attack and target a laneWork's plans belong
// to.
type planKey struct {
	attack Attack
	target int64
}

// keepLanes returns the lane work the arena keeps for protocol p on rings
// of n processors, building it on a miss.
func keepLanes(arena *sim.Arena, p LaneProtocol, n int) *laneWork {
	key := laneKey{p, n}
	kept, _ := arena.Keep(key, func() (any, error) { return &laneWork{key: key}, nil })
	return kept.(*laneWork)
}

// runner returns the work's runner, honest or seating coalitions, building
// it on first use. A runner that fails to build is kept as nil: every trial
// then runs scalar and reports the protocol's own error.
func (w *laneWork) runner(coalition bool) *LaneRunner {
	i := 0
	if coalition {
		i = 1
	}
	if !w.built[i] {
		r, err := NewLaneRunner(w.key.p, w.key.n, coalition)
		if err != nil {
			r = nil
		}
		w.runners[i], w.built[i] = r, true
	}
	return w.runners[i]
}

// reusedPlans returns the plans kept for a BatchSafe attack and target, or
// nil when the work holds none for them.
func (w *laneWork) reusedPlans(k planKey) *[Lanes]*Deviation {
	if w.plans == nil || w.planFor != k {
		return nil
	}
	return w.plans
}

// lanesFor is the one place that picks the lane path. It returns the lane
// protocol that runs the spec's chunks, from the input alone, or nil, and
// every trial runs scalar, unless the protocol has a lane form and the
// batch is plain: no per-trial scheduler hook and no spec scheduler (so the
// schedule is FIFO), no tracer, no step limit and no deviation in the spec.
// Rings below two processors stay scalar, so they fail with the scalar
// path's validation error.
func lanesFor(spec Spec, schedFor SchedulerFor) LaneProtocol {
	lp, ok := spec.Protocol.(LaneProtocol)
	if !ok || spec.N < 2 || schedFor != nil || spec.Scheduler != nil ||
		spec.Tracer != nil || spec.StepLimit != 0 || spec.Deviation != nil {
		return nil
	}
	return lp
}

// runBlocks runs trials [start, end) of a chunk in trial order. Every whole
// block of Lanes trials goes to block, which reports whether it ran the
// block as a lane execution and added its results; every other trial, and
// every block that block declines, runs through scalar. A nil block runs
// everything scalar.
func runBlocks(start, end int, block func(t int) (bool, error), scalar func(t int) error) (int, error) {
	t := start
	for ; block != nil && t+Lanes <= end; t += Lanes {
		laned, err := block(t)
		if err != nil {
			return t, err
		}
		if laned {
			continue
		}
		for u := t; u < t+Lanes; u++ {
			if err := scalar(u); err != nil {
				return u, err
			}
		}
	}
	for ; t < end; t++ {
		if err := scalar(t); err != nil {
			return t, err
		}
	}
	return 0, nil
}

// runLaneBlock runs the block of trials starting at t as one lane execution
// and adds its results in trial order. It reports false, having added
// nothing, when the lanes diverged.
func runLaneBlock(r *LaneRunner, arena *sim.Arena, t int, seeds [Lanes]int64, devs *[Lanes]*Deviation, add func(sim.Result)) (bool, error) {
	results, ok, err := r.Run(arena, seeds, devs)
	if err != nil {
		return false, fmt.Errorf("trials %d-%d: %w", t, t+Lanes-1, err)
	}
	laneBlocks.Add(1)
	if !ok {
		laneDiverged.Add(1)
		return false, nil
	}
	for _, res := range results {
		add(res)
	}
	return true, nil
}
