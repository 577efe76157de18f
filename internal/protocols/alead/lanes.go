package alead

import (
	"fmt"
	"math"

	"repro/internal/ring"
	"repro/internal/sim"
)

// Lanes is the lane width of A-LEADuni's lane form: the number of
// independent honest executions one simulated ring carries. It is ring's
// lane width, so the lane vector serves ring.HonestChunkJob's lane blocks.
const Lanes = ring.Lanes

var _ ring.LaneProtocol = Protocol{}

// LaneStrategies implements ring.LaneProtocol: the honest lane vector for
// rings of 2 ≤ n ≤ math.MaxInt32 processors (lane values are secrets in
// [0, n), held as int32). Every message carries one value per lane, and
// each lane's outcome splits back into the sim.Result its scalar run
// (ring.RunArena with Protocol under that lane's seed) returns. The vector
// keeps its own two-slot payload table, not st's slot ring, so it cannot
// seat a coalition: with coalition set it returns nil.
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
func (Protocol) LaneStrategies(n int, st *ring.LaneState, coalition bool) ([]sim.Strategy, error) {
	if n < 2 {
		return nil, fmt.Errorf("alead: need n ≥ 2 for a lane ring, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("alead: lane values are int32, so a lane ring needs n ≤ %d, got %d", math.MaxInt32, n)
	}
	if coalition {
		return nil, nil
	}
	sh := &laneShared{st: st}
	vec := make([]sim.Strategy, n)
	vec[0] = &laneOrigin{sh: sh, n: n}
	normals := make([]laneNormal, n-1)
	for i := range normals {
		normals[i] = laneNormal{sh: sh, n: n}
		vec[i+1] = &normals[i]
	}
	return vec, nil
}

// laneShared is what an A-LEADuni lane vector shares: ring's lane state
// (seeds and per-lane outcomes) and the two-slot payload table.
//
// A message's payload is a slot index into table, and the slot holds the
// message's value in every lane. Two slots suffice because an honest
// execution has exactly one message in flight at any time (see
// LaneStrategies): a processor handling the delivery of slot s sends the
// only new message, into slot s^1, so no send can overwrite a slot still in
// flight. The table is cheaper per message than ring's general slot ring,
// which is why A-LEADuni keeps it.
//
// Values need no reduction: every value on an honest lane ring is a secret
// drawn from [0, n) and forwarded unchanged, so the scalar run's ring.Mod on
// receipt is the identity there. Sums stay int64, and the one reduction each
// lane needs happens in ring.LeaderFromSum at termination, as in the scalar
// run.
type laneShared struct {
	st    *ring.LaneState
	table [2][Lanes]int32
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
	sh.st.Begin(id)
	for l := range secret {
		rng := sim.NewStream(sh.st.Seeds[l], id)
		secret[l] = int32(rng.Int63n(int64(n)))
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
		sh.st.End(l, id, ring.LeaderFromSum(sum[l], n), last[l] != secret[l])
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
