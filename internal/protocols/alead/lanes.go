package alead

import (
	"fmt"
	"math"

	"repro/internal/ring"
	"repro/internal/sim"
)

// Lanes is the lane width of a LaneRunner: the number of independent honest
// executions one simulated ring carries. It is ring's lane width, so the
// runner serves ring.HonestChunkJob's lane blocks.
const Lanes = ring.Lanes

var _ ring.LaneProtocol = Protocol{}

// NewLaneRunner implements ring.LaneProtocol with a LaneRunner for rings of
// n processors.
func (Protocol) NewLaneRunner(n int) (ring.LaneRunner, error) {
	r, err := NewLaneRunner(n)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// LaneRunner runs Lanes independent honest A-LEADuni executions of one ring
// size on a single simulated ring, paying the kernel's per-message cost once
// for all of them. Every message carries one value per lane, and each lane's
// outcome is split back into the sim.Result its scalar run
// (ring.RunArena with Protocol under that lane's seed) returns.
//
// Lanes are exact because an honest execution's schedule does not depend on
// its values. Each normal processor sends exactly once per receive, the
// origin sends once in Init and once per receive except its last, and every
// processor terminates on its n-th receive: n² sends, n² deliveries, no
// drops, and exactly one message in flight at any time. The one
// value-dependent decision, each processor's final check that its own secret
// came back, ends the processor either way — Terminate and Abort have the
// same effect on later deliveries, drops and sends. So the lane execution's
// Delivered, Dropped and Steps belong to every lane, while outputs and
// aborts are kept per lane.
//
// A LaneRunner belongs to one goroutine. Its strategy vector is built once
// and re-initialized by Init on every Run, like the scalar vector of a
// batched trial loop.
type LaneRunner struct {
	n   int
	sh  *laneShared
	vec []sim.Strategy
	res [Lanes]sim.Result
}

// NewLaneRunner builds a lane runner for rings of 2 ≤ n ≤ math.MaxInt32
// processors: lane values are secrets in [0, n), held as int32.
func NewLaneRunner(n int) (*LaneRunner, error) {
	if n < 2 {
		return nil, fmt.Errorf("alead: need n ≥ 2 for a lane ring, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("alead: lane values are int32, so a lane ring needs n ≤ %d, got %d", math.MaxInt32, n)
	}
	sh := &laneShared{}
	outs := make([]int64, Lanes*(n+1))
	stats := make([]sim.Status, Lanes*(n+1))
	for l := range Lanes {
		lo, hi := l*(n+1), (l+1)*(n+1)
		sh.outputs[l], sh.statuses[l] = outs[lo:hi:hi], stats[lo:hi:hi]
	}
	vec := make([]sim.Strategy, n)
	vec[0] = &laneOrigin{sh: sh, n: n}
	normals := make([]laneNormal, n-1)
	for i := range normals {
		normals[i] = laneNormal{sh: sh, n: n}
		vec[i+1] = &normals[i]
	}
	return &LaneRunner{n: n, sh: sh, vec: vec}, nil
}

// Run executes one lane execution on the caller's arena: lane l is the
// honest execution under seeds[l]. It returns one Result per lane. Outputs
// and Statuses come from the lane (an aborted lane's processor has
// StatusAborted and output 0, as Abort leaves it); Failed, Reason and Output
// follow the Network's classification (sim.Result.Classify), and a
// step-limit stop fails every lane. The results alias runner memory and are
// invalidated by the next Run; Clone one to keep it.
func (r *LaneRunner) Run(arena *sim.Arena, seeds [Lanes]int64) ([]sim.Result, error) {
	r.sh.seeds = seeds
	// The network's own seed only keys processor streams the lane
	// strategies never draw from: each lane draws from its own seed.
	net, err := arena.Run(sim.Config{Strategies: r.vec, Edges: arena.RingEdges(r.n)})
	if err != nil {
		return nil, fmt.Errorf("alead: lane ring: %w", err)
	}
	return r.split(net), nil
}

// split assembles the per-lane results of a finished lane execution.
func (r *LaneRunner) split(net sim.Result) []sim.Result {
	stepLimited := net.Reason == sim.FailStepLimit
	for l := range r.res {
		res := &r.res[l]
		*res = sim.Result{
			Outputs:   r.sh.outputs[l],
			Statuses:  r.sh.statuses[l],
			Delivered: net.Delivered,
			Dropped:   net.Dropped,
			Steps:     net.Steps,
		}
		res.Classify(stepLimited)
	}
	return r.res[:]
}

// laneShared is the state a lane vector shares: the lane seeds, the payload
// table and the per-lane outcome buffers the processors write.
//
// A message's payload is a slot index into table, and the slot holds the
// message's value in every lane. Two slots suffice because an honest
// execution has exactly one message in flight at any time (see LaneRunner):
// a processor handling the delivery of slot s sends the only new message,
// into slot s^1, so no send can overwrite a slot still in flight.
//
// Lane values are int32, so a slot is 64 bytes: the compiler moves a whole
// slot with a few unrolled vector moves, where 16 int64s would cost a
// runtime.duffcopy call per message. Values need no reduction: every value
// on an honest lane ring is a secret drawn from [0, n) and forwarded
// unchanged, so the scalar run's ring.Mod on receipt is the identity there.
// Sums stay int64, and the one reduction each lane needs happens in
// ring.LeaderFromSum at termination, as in the scalar run.
type laneShared struct {
	seeds    [Lanes]int64
	table    [2][Lanes]int32
	outputs  [Lanes][]int64      // outputs[l][i]: processor i's output in lane l
	statuses [Lanes][]sim.Status // statuses[l][i]: its status in lane l
}

// slots returns the slot a delivery of payload s reads and the slot the
// delivering processor sends in.
func (sh *laneShared) slots(s int64) (in, out *[Lanes]int32) {
	return &sh.table[s&1], &sh.table[(s&1)^1]
}

// begin draws a processor's secret in every lane — exactly the draw
// ctx.Rand() makes at Init in the scalar run under that lane's seed — and
// marks the processor running with output 0 in every lane.
func (sh *laneShared) begin(ctx *sim.Context, n int, secret *[Lanes]int32) {
	id := ctx.Self()
	for l := range secret {
		rng := sim.NewStream(sh.seeds[l], id)
		secret[l] = int32(rng.Int63n(int64(n)))
		sh.outputs[l][id], sh.statuses[l][id] = 0, sim.StatusRunning
	}
}

// addLanes adds a slot's values into per-lane sums.
func addLanes(sum *[Lanes]int64, in *[Lanes]int32) {
	for l, v := range in {
		sum[l] += int64(v)
	}
}

// finish is a processor's n-th receive in every lane: lane l terminates with
// the leader of its sum if its last incoming value is its own secret, and
// aborts with output 0 otherwise. The processor itself terminates on the
// shared ring either way, which keeps the schedule common to all lanes.
func (sh *laneShared) finish(ctx *sim.Context, n int, last, secret *[Lanes]int32, sum *[Lanes]int64) {
	id := ctx.Self()
	for l := range last {
		if last[l] != secret[l] {
			sh.statuses[l][id] = sim.StatusAborted
			continue
		}
		sh.statuses[l][id] = sim.StatusTerminated
		sh.outputs[l][id] = ring.LeaderFromSum(sum[l], n)
	}
	ctx.Terminate(0)
}

// laneOrigin is origin with one secret and sum per lane.
type laneOrigin struct {
	sh       *laneShared
	n        int
	secret   [Lanes]int32
	sum      [Lanes]int64
	received int
}

var _ sim.Strategy = (*laneOrigin)(nil)

// Init sends the origin's secrets in slot 0, resetting all execution state.
func (o *laneOrigin) Init(ctx *sim.Context) {
	o.sum, o.received = [Lanes]int64{}, 0
	o.sh.begin(ctx, o.n, &o.secret)
	o.sh.table[0] = o.secret
	ctx.Send(0)
}

// Receive is origin.Receive in every lane: forward the incoming values, or
// validate them on the n-th receive.
func (o *laneOrigin) Receive(ctx *sim.Context, _ sim.ProcID, slot int64) {
	in, out := o.sh.slots(slot)
	addLanes(&o.sum, in)
	o.received++
	if o.received < o.n {
		// Through a local: a pointer-to-pointer array copy compiles to a
		// runtime.memmove call, as the compiler cannot rule out overlap.
		v := *in
		*out = v
		ctx.Send(slot ^ 1)
		return
	}
	o.sh.finish(ctx, o.n, in, &o.secret, &o.sum)
}

// laneNormal is normal with one secret, buffer and sum per lane.
type laneNormal struct {
	sh       *laneShared
	n        int
	secret   [Lanes]int32
	buffer   [Lanes]int32
	sum      [Lanes]int64
	received int
}

var _ sim.Strategy = (*laneNormal)(nil)

// Init draws the secrets into the buffer, resetting all execution state.
func (p *laneNormal) Init(ctx *sim.Context) {
	p.sum, p.received = [Lanes]int64{}, 0
	p.sh.begin(ctx, p.n, &p.secret)
	p.buffer = p.secret
}

// Receive is normal.Receive in every lane: release the buffered values,
// buffer the incoming ones, and validate on the n-th receive.
func (p *laneNormal) Receive(ctx *sim.Context, _ sim.ProcID, slot int64) {
	in, out := p.sh.slots(slot)
	*out = p.buffer
	p.buffer = *in
	addLanes(&p.sum, in)
	ctx.Send(slot ^ 1)
	p.received++
	if p.received < p.n {
		return
	}
	p.sh.finish(ctx, p.n, &p.buffer, &p.secret, &p.sum)
}
