package phaselead

import (
	"math"

	"repro/internal/ring"
	"repro/internal/sim"
)

var _ ring.LaneProtocol = Protocol{}

// LaneStrategies implements ring.LaneProtocol: the honest lane vector for
// rings of n processors, whose messages pass through st's slot ring, so
// lockstep adapters can seat a coalition among them. An honest processor's
// sends depend only on its round and id, so the lanes share one schedule;
// f's folds and the range and validation checks stay per lane, and a check
// some lanes fail and others pass diverges the block (ring.LaneState.Settle).
// Lane values are int32, so rings whose validation alphabet M exceeds
// math.MaxInt32 have no lane form: it returns nil, and they run scalar.
func (p Protocol) LaneStrategies(n int, st *ring.LaneState, _ bool) ([]sim.Strategy, error) {
	cfg, err := p.Config(n)
	if err != nil {
		return nil, err
	}
	if cfg.M > math.MaxInt32 {
		return nil, nil
	}
	vec := make([]sim.Strategy, n)
	vec[0] = &laneOrigin{cfg: cfg, st: st}
	normals := make([]laneNormal, n-1)
	for i := range normals {
		normals[i] = laneNormal{cfg: cfg, st: st, id: i + 2}
		vec[i+1] = &normals[i]
	}
	return vec, nil
}

// laneDraws draws a processor's d and v in every lane — exactly the draws
// ctx.Rand() makes at Init in the scalar run under that lane's seed — and
// marks the processor running in every lane.
func laneDraws(ctx *sim.Context, cfg *Config, st *ring.LaneState, d, v *[ring.Lanes]int32) {
	id := ctx.Self()
	st.Begin(id)
	for l := range d {
		rng := sim.NewStream(st.Seeds[l], id)
		d[l] = int32(rng.Int63n(int64(cfg.N)))
		v[l] = int32(rng.Int63n(cfg.M))
	}
}

// outside has bit l set where in[l] lies outside [0, limit): the lanes
// whose scalar run rejects the message as a visible deviation. limit is n
// or M, both at most math.MaxInt32, so one unsigned comparison covers both
// ends, and the common all-in-range case costs one pass of max.
func outside(in *[ring.Lanes]int32, limit int64) uint64 {
	lim := uint32(limit)
	var top uint32
	for _, x := range in {
		top = max(top, uint32(x))
	}
	if top < lim {
		return 0
	}
	var bad uint64
	for l, x := range in {
		if uint32(x) >= lim {
			bad |= 1 << l
		}
	}
	return bad
}

// differ has bit l set where in[l] != want[l].
func differ(in, want *[ring.Lanes]int32) uint64 {
	var bad uint64
	for l := range in {
		if in[l] != want[l] {
			bad |= 1 << l
		}
	}
	return bad
}

// foldData folds data coordinate label of every lane into acc.
func foldData(cfg *Config, acc *[ring.Lanes]uint64, label int, in *[ring.Lanes]int32) {
	for l, x := range in {
		acc[l] ^= cfg.F.CoordData(label, int64(x))
	}
}

// foldVal folds validation coordinate round of every lane into acc.
func foldVal(cfg *Config, acc *[ring.Lanes]uint64, round int, in *[ring.Lanes]int32) {
	for l, x := range in {
		acc[l] ^= cfg.F.CoordVal(round, int64(x))
	}
}

// terminate ends processor ctx.Self() in every lane with f's output on the
// lane's accumulator.
func terminate(ctx *sim.Context, cfg *Config, st *ring.LaneState, acc *[ring.Lanes]uint64) {
	id := ctx.Self()
	for l, a := range acc {
		st.End(l, id, cfg.F.Finalize(a), false)
	}
	ctx.Terminate(0)
}

// laneNormal is normal with one d, v, buffer and accumulator per lane.
type laneNormal struct {
	cfg      Config
	st       *ring.LaneState
	id       int
	d, v     [ring.Lanes]int32
	buffer   [ring.Lanes]int32
	acc      [ring.Lanes]uint64
	round    int
	received int
}

var _ sim.Strategy = (*laneNormal)(nil)

// Init draws every lane's secrets, resetting all execution state.
func (p *laneNormal) Init(ctx *sim.Context) {
	laneDraws(ctx, &p.cfg, p.st, &p.d, &p.v)
	p.buffer = p.d
	p.round, p.received = 0, 0
	for l, x := range p.d {
		p.acc[l] = p.cfg.F.CoordData(p.id, int64(x))
	}
}

// Receive is normal.Receive in every lane.
func (p *laneNormal) Receive(ctx *sim.Context, _ sim.ProcID, payload int64) {
	in := p.st.Recv(payload)
	p.received++
	if p.received%2 == 1 {
		p.receiveData(ctx, in)
	} else {
		p.receiveValidation(ctx, in)
	}
}

func (p *laneNormal) receiveData(ctx *sim.Context, in *[ring.Lanes]int32) {
	if !p.st.Settle(ctx, outside(in, int64(p.cfg.N))) {
		return
	}
	p.st.Send(ctx, &p.buffer)
	p.round++
	p.buffer = *in
	if p.round < p.cfg.N {
		foldData(&p.cfg, &p.acc, p.cfg.Label(p.id-p.round), in)
	}
	if p.round == p.id {
		if p.id <= p.cfg.N-p.cfg.L {
			foldVal(&p.cfg, &p.acc, p.id, &p.v)
		}
		p.st.Send(ctx, &p.v)
	}
	if p.round == p.cfg.N {
		p.st.Settle(ctx, differ(in, &p.d)) // own data value must return
	}
}

func (p *laneNormal) receiveValidation(ctx *sim.Context, in *[ring.Lanes]int32) {
	if !p.st.Settle(ctx, outside(in, p.cfg.M)) {
		return
	}
	if p.round == p.id {
		if !p.st.Settle(ctx, differ(in, &p.v)) {
			return // phase validation failed
		}
	} else {
		if p.round <= p.cfg.N-p.cfg.L {
			foldVal(&p.cfg, &p.acc, p.round, in)
		}
		p.st.Send(ctx, in) // forward without delay
	}
	if p.round == p.cfg.N {
		terminate(ctx, &p.cfg, p.st, &p.acc)
	}
}

// laneOrigin is origin with one d, v, buffer and accumulator per lane.
type laneOrigin struct {
	cfg      Config
	st       *ring.LaneState
	d, v     [ring.Lanes]int32
	buffer   [ring.Lanes]int32
	acc      [ring.Lanes]uint64
	round    int
	received int
}

var _ sim.Strategy = (*laneOrigin)(nil)

// Init draws every lane's secrets and opens round 1, resetting all
// execution state.
func (o *laneOrigin) Init(ctx *sim.Context) {
	laneDraws(ctx, &o.cfg, o.st, &o.d, &o.v)
	o.buffer, o.received = [ring.Lanes]int32{}, 0
	for l, x := range o.d {
		o.acc[l] = o.cfg.F.CoordData(1, int64(x))
	}
	if 1 <= o.cfg.N-o.cfg.L {
		foldVal(&o.cfg, &o.acc, 1, &o.v)
	}
	o.round = 1
	o.st.Send(ctx, &o.d) // open round 1
	o.st.Send(ctx, &o.v) // origin is round 1's validator
}

// Receive is origin.Receive in every lane.
func (o *laneOrigin) Receive(ctx *sim.Context, _ sim.ProcID, payload int64) {
	in := o.st.Recv(payload)
	o.received++
	if o.received%2 == 1 {
		o.receiveData(ctx, in)
	} else {
		o.receiveValidation(ctx, in)
	}
}

func (o *laneOrigin) receiveData(ctx *sim.Context, in *[ring.Lanes]int32) {
	if !o.st.Settle(ctx, outside(in, int64(o.cfg.N))) {
		return
	}
	o.buffer = *in
	if o.round < o.cfg.N {
		foldData(&o.cfg, &o.acc, o.cfg.Label(1-o.round), in)
	}
	if o.round == o.cfg.N {
		o.st.Settle(ctx, differ(in, &o.d)) // own data value must return
	}
}

func (o *laneOrigin) receiveValidation(ctx *sim.Context, in *[ring.Lanes]int32) {
	if !o.st.Settle(ctx, outside(in, o.cfg.M)) {
		return
	}
	if o.round == 1 {
		if !o.st.Settle(ctx, differ(in, &o.v)) {
			return
		}
	} else {
		if o.round <= o.cfg.N-o.cfg.L {
			foldVal(&o.cfg, &o.acc, o.round, in)
		}
		o.st.Send(ctx, in)
	}
	if o.round == o.cfg.N {
		terminate(ctx, &o.cfg, o.st, &o.acc)
		return
	}
	o.st.Send(ctx, &o.buffer) // open the next round
	o.round++
}
