package ring

import (
	"fmt"

	"repro/internal/sim"
)

// maxSumLaneRing is the largest ring a sum-ring lane vector serves. A lane
// sums n secrets from [0, n) in 32 bits, which stays exact while
// n(n−1) < 2³².
const maxSumLaneRing = 1 << 16

// laneRow holds one value per lane, two lanes per word: lane l in the
// (l mod 2)-th 32-bit half of word l/2. Secrets and sums share the layout,
// so adding a row into a sum is Lanes/2 word additions.
type laneRow [Lanes / 2]uint64

// lane returns lane l's value.
func (r *laneRow) lane(l int) uint32 { return uint32(r[l/2] >> (32 * (l % 2))) }

// add adds row into r lane by lane. A lane carries into its neighbour only
// past 2³², which no sum of a ring of at most maxSumLaneRing processors
// reaches.
func (r *laneRow) add(row *laneRow) {
	for w := range r {
		r[w] += row[w]
	}
}

// SumLanes returns the honest lane vector of a sum ring on n processors,
// sharing st: the lane form of A-LEADuni (buffered: the origin forwards and
// processors 2..n buffer one secret) and of Basic-LEAD (every processor
// forwards). An honest processor of either forwards every other secret
// unchanged and elects the leader from their sum, so the vector's messages
// carry no values: row id of a table the vector shares holds processor id's
// secret in every lane, drawn at Init from the stream ctx.Rand() draws from
// in the scalar run and never written again, and a message's payload is the
// index of the row it forwards. Rows stay valid with any number of messages
// in flight.
//
// Lanes are exact because an honest sum ring's schedule does not depend on
// its values: a forwarder sends once in Init and once per receipt except
// its n-th, a buffered processor sends once per receipt, and every
// processor ends on its n-th receipt, which makes n² sends, n² deliveries
// and no drops. A processor's one value-dependent decision, the final
// check that its own secret came back, ends it either way, since Terminate
// and Abort have the same effect on later deliveries, drops and sends. So the
// lane execution's Delivered, Dropped and Steps belong to every lane, and
// the check aborts a failing lane only.
//
// The vector cannot seat a coalition, whose messages carry values: with
// coalition set it returns nil, as it does for rings beyond
// maxSumLaneRing, and those blocks run scalar.
func SumLanes(n int, st *LaneState, coalition, buffered bool) ([]sim.Strategy, error) {
	if n < 2 {
		return nil, fmt.Errorf("ring: need n ≥ 2 for a lane ring, got %d", n)
	}
	if coalition || n > maxSumLaneRing {
		return nil, nil
	}
	sr := sumRing{st: st, rows: make([]laneRow, n+1), n: n} // row 0 is unused: ids start at 1
	vec := make([]sim.Strategy, n)
	if !buffered {
		fwd := make([]sumForwarder, n)
		for i := range fwd {
			fwd[i].sumRing = sr
			vec[i] = &fwd[i]
		}
		return vec, nil
	}
	vec[0] = &sumForwarder{sumRing: sr}
	buf := make([]sumBuffered, n-1)
	for i := range buf {
		buf[i].sumRing = sr
		vec[i+1] = &buf[i]
	}
	return vec, nil
}

// sumRing is what every processor of a sum ring's lane vector holds: the
// shared lane state and row table, and the ring size.
type sumRing struct {
	st   *LaneState
	rows []laneRow
	n    int
}

// draw draws processor id's secret in every lane into its row, exactly the
// draw ctx.Rand() makes at Init in the scalar run under that lane's seed,
// and marks the processor running with output 0 in every lane.
func (sr *sumRing) draw(id sim.ProcID) {
	sr.st.Begin(id)
	var row laneRow
	for l, seed := range sr.st.Seeds {
		rng := sim.NewStream(seed, id)
		row[l/2] |= uint64(rng.Int63n(int64(sr.n))) << (32 * (l % 2))
	}
	sr.rows[id] = row
}

// finish is a processor's n-th receipt, of row r, in every lane: lane l
// terminates with the leader of its sum if row r's value is the
// processor's own secret in lane l, and aborts with output 0 otherwise. The
// processor terminates on the shared ring either way, which keeps the
// schedule common to all lanes.
func (sr *sumRing) finish(ctx *sim.Context, r int64, sum *laneRow) {
	id := ctx.Self()
	in, own := &sr.rows[r], &sr.rows[id]
	for l := range Lanes {
		sr.st.End(l, id, LeaderFromSum(int64(sum.lane(l)), sr.n), in.lane(l) != own.lane(l))
	}
	ctx.Terminate(0)
}

// sumForwarder sends its own row at Init and forwards every receipt except
// the n-th: Basic-LEAD's processor and A-LEADuni's origin.
type sumForwarder struct {
	sumRing
	sum      laneRow
	received int
}

var _ sim.Strategy = (*sumForwarder)(nil)

// Init draws the processor's row and sends it, resetting all execution
// state.
func (p *sumForwarder) Init(ctx *sim.Context) {
	p.sum, p.received = laneRow{}, 0
	id := ctx.Self()
	p.draw(id)
	ctx.Send(int64(id))
}

// Receive adds row r to the sums and forwards it, or ends the processor on
// the n-th receipt.
func (p *sumForwarder) Receive(ctx *sim.Context, _ sim.ProcID, r int64) {
	p.sum.add(&p.rows[r])
	p.received++
	if p.received < p.n {
		ctx.Send(r)
		return
	}
	p.finish(ctx, r, &p.sum)
}

// sumBuffered holds one row index, initially its own: on each receipt it
// sends the index it holds and keeps the incoming one. It is A-LEADuni's
// normal processor, whose first send commits it to its secret before it
// has learned anything.
type sumBuffered struct {
	sumRing
	held     int64
	sum      laneRow
	received int
}

var _ sim.Strategy = (*sumBuffered)(nil)

// Init draws the processor's row and holds it, resetting all execution
// state.
func (p *sumBuffered) Init(ctx *sim.Context) {
	p.sum, p.received = laneRow{}, 0
	id := ctx.Self()
	p.draw(id)
	p.held = int64(id)
}

// Receive releases the held row, holds row r and adds it to the sums, and
// ends the processor on the n-th receipt.
func (p *sumBuffered) Receive(ctx *sim.Context, _ sim.ProcID, r int64) {
	ctx.Send(p.held)
	p.held = r
	p.sum.add(&p.rows[r])
	p.received++
	if p.received == p.n {
		p.finish(ctx, r, &p.sum)
	}
}
