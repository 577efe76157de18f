// Package phaselead implements PhaseAsyncLead, the paper's new
// Θ(√n)-resilient fair leader election protocol for an asynchronous
// unidirectional ring (Section 6, pseudo-code in Appendix E.3).
//
// PhaseAsyncLead extends A-LEADuni with a phase-validation mechanism that
// keeps all processors k-synchronized instead of k²-synchronized. Execution
// proceeds in n rounds; in round r every processor handles one data message
// (the buffered secret-sharing flow of A-LEADuni) and one validation
// message. Processor r is round r's validator: it draws a secret validation
// value v_r ∈ [m] (m = 2n²), sends it right after its round-r data message,
// and aborts unless exactly that value returns after circulating the ring.
// Message types are positional: odd receives are data, even receives are
// validation (Section E.3's remark), and out-of-range payloads abort.
//
// Because synchronization now lets small amounts of information travel
// quickly, the final output is not the sum of the data values but a random
// function f applied to all n data values and the first n−l validation
// values, with l = ⌈10√n⌉: an adversary must learn essentially the whole
// input before it can bias f, and by then it is committed to every outgoing
// message that the honest processors will use (Theorem 6.1).
//
// Note on the paper's pseudo-code: Appendix E.3's origin would emit an
// (n+1)-th data message in round n. As with A-LEADuni, this implementation
// follows the protocol's verbal description: in round n the origin forwards
// the final validation message and terminates, and it also checks that its
// own data value returned in round n. Honest-run tests pin 2n sends per
// processor.
package phaselead

import (
	"fmt"

	"repro/internal/randfunc"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Params configures PhaseAsyncLead. The zero value selects the paper's
// defaults.
type Params struct {
	// L is the validation prefix length fed to f; 0 picks ⌈10√n⌉,
	// clamped to [1, n].
	L int
	// M is the validation alphabet size; 0 picks 2n².
	M int64
	// FuncSeed selects the member of the random function family; it is
	// part of the protocol's definition and must be common knowledge.
	FuncSeed int64
}

// Config is the fully resolved protocol configuration for a ring of size n.
// Attacks and analyses use it to share the exact function and parameters the
// honest processors run with.
type Config struct {
	N int
	L int
	M int64
	F *randfunc.Func
}

// Label returns the 1-based ring position p normalized to [1..n]; data
// values are indexed by the position of their originator ("labels"). The
// hot callers pass p ∈ (−n, n], which the branch-only path handles without
// the division.
func (c Config) Label(p int) int {
	if p > 0 && p <= c.N {
		return p
	}
	if p > -c.N && p <= 0 {
		return p + c.N
	}
	p %= c.N
	if p <= 0 {
		p += c.N
	}
	return p
}

// Output evaluates the protocol's output function on a full data vector
// (1-based positions data[1..n]) and validation vector (vals[1..n]).
func (c Config) Output(data, vals []int64) int64 {
	return c.F.Eval(data[1:c.N+1], vals[1:c.N-c.L+1])
}

// Protocol is PhaseAsyncLead.
type Protocol struct {
	params Params
}

var _ ring.Protocol = Protocol{}

// New returns PhaseAsyncLead with the given parameters.
func New(p Params) Protocol { return Protocol{params: p} }

// NewDefault returns PhaseAsyncLead with the paper's parameters.
func NewDefault() Protocol { return Protocol{} }

// Name implements ring.Protocol.
func (Protocol) Name() string { return "PhaseAsyncLead" }

// BatchSafe marks the protocol's strategies as fully re-initialized by Init,
// so one strategy vector can serve every trial of an engine chunk.
func (Protocol) BatchSafe() {}

// DefaultL returns the paper's validation prefix length ⌈10√n⌉, clamped so
// that 1 ≤ n−L < n remains a valid prefix range.
func DefaultL(n int) int {
	l := 1
	for l*l < 100*n { // smallest l with l ≥ 10√n
		l++
	}
	if l > n {
		l = n
	}
	return l
}

// Config resolves the parameters for a ring of size n.
func (p Protocol) Config(n int) (Config, error) {
	if n < 2 {
		return Config{}, fmt.Errorf("phaselead: need n ≥ 2, got %d", n)
	}
	l := p.params.L
	if l == 0 {
		l = DefaultL(n)
	}
	if l < 1 || l > n {
		return Config{}, fmt.Errorf("phaselead: L=%d out of range [1,%d]", l, n)
	}
	m := p.params.M
	if m == 0 {
		m = 2 * int64(n) * int64(n)
	}
	if m < int64(n) {
		return Config{}, fmt.Errorf("phaselead: M=%d must be at least n=%d", m, n)
	}
	f, err := randfunc.New(p.params.FuncSeed, n)
	if err != nil {
		return Config{}, err
	}
	return Config{N: n, L: l, M: m, F: f}, nil
}

// Strategies implements ring.Protocol.
func (p Protocol) Strategies(n int) ([]sim.Strategy, error) {
	cfg, err := p.Config(n)
	if err != nil {
		return nil, err
	}
	strategies := make([]sim.Strategy, n)
	strategies[0] = &origin{cfg: cfg}
	for i := 1; i < n; i++ {
		strategies[i] = &normal{cfg: cfg, id: i + 1}
	}
	return strategies, nil
}

// normal is a non-origin PhaseAsyncLead processor (Appendix E.3, normal
// code). It delays data by one round via its buffer, forwards validation
// values immediately, validates its own round, and finally applies f.
type normal struct {
	cfg      Config
	id       int
	d, v     int64
	buffer   int64
	round    int
	received int
	// acc is f's XOR-accumulator maintained incrementally: every data
	// coordinate 1..n and validation coordinate 1..n−l arrives exactly once
	// before termination, so folding each one's mix as it arrives makes the
	// final output a single Finalize, and no processor stores the vectors.
	acc uint64
}

var _ sim.Strategy = (*normal)(nil)

func (p *normal) Init(ctx *sim.Context) {
	p.d = ctx.Rand().Int63n(int64(p.cfg.N))
	p.v = ctx.Rand().Int63n(p.cfg.M)
	p.buffer = p.d
	// Init must be idempotent: a strategy object re-run on a Reset network
	// starts from the state of a fresh one.
	p.round, p.received = 0, 0
	p.acc = p.cfg.F.CoordData(p.id, p.d)
}

func (p *normal) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	p.received++
	if p.received%2 == 1 {
		p.receiveData(ctx, value)
	} else {
		p.receiveValidation(ctx, value)
	}
}

func (p *normal) receiveData(ctx *sim.Context, value int64) {
	if value < 0 || value >= int64(p.cfg.N) {
		ctx.Abort() // a data message outside [n] is a visible deviation
		return
	}
	ctx.Send(p.buffer)
	p.round++
	p.buffer = value
	// Round n brings back the processor's own value, which line 16
	// requires to equal d_i; its coordinate is in the accumulator from
	// Init.
	if p.round < p.cfg.N {
		p.acc ^= p.cfg.F.CoordData(p.cfg.Label(p.id-p.round), value)
	}
	if p.round == p.id {
		// This processor is the round's validator: commit to v_i now.
		if p.id <= p.cfg.N-p.cfg.L {
			p.acc ^= p.cfg.F.CoordVal(p.id, p.v)
		}
		ctx.Send(p.v)
	}
	if p.round == p.cfg.N && value != p.d {
		ctx.Abort() // own data value failed to return (line 16)
	}
}

func (p *normal) receiveValidation(ctx *sim.Context, value int64) {
	if value < 0 || value >= p.cfg.M {
		ctx.Abort()
		return
	}
	if p.round == p.id {
		if value != p.v {
			ctx.Abort() // phase validation failed (line 19)
			return
		}
	} else {
		if p.round <= p.cfg.N-p.cfg.L {
			p.acc ^= p.cfg.F.CoordVal(p.round, value)
		}
		ctx.Send(value) // forward without delay
	}
	if p.round == p.cfg.N {
		ctx.Terminate(p.cfg.F.Finalize(p.acc))
	}
}

// origin is processor 1 (Appendix E.3, origin code): it initiates every
// round, acts as a data pipe paced by the validation flow, and validates
// round 1.
type origin struct {
	cfg      Config
	d, v     int64
	buffer   int64
	round    int
	received int
	acc      uint64 // incremental f accumulator; see normal.acc
}

var _ sim.Strategy = (*origin)(nil)

func (o *origin) Init(ctx *sim.Context) {
	o.d = ctx.Rand().Int63n(int64(o.cfg.N))
	o.v = ctx.Rand().Int63n(o.cfg.M)
	o.buffer, o.received = 0, 0 // see normal.Init: idempotence under reuse
	o.acc = o.cfg.F.CoordData(1, o.d)
	if 1 <= o.cfg.N-o.cfg.L {
		o.acc ^= o.cfg.F.CoordVal(1, o.v)
	}
	o.round = 1
	ctx.Send(o.d) // open round 1
	ctx.Send(o.v) // origin is round 1's validator
}

func (o *origin) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	o.received++
	if o.received%2 == 1 {
		o.receiveData(ctx, value)
	} else {
		o.receiveValidation(ctx, value)
	}
}

func (o *origin) receiveData(ctx *sim.Context, value int64) {
	if value < 0 || value >= int64(o.cfg.N) {
		ctx.Abort()
		return
	}
	o.buffer = value
	// Round n brings back the origin's own value, accumulated in Init.
	if o.round < o.cfg.N {
		o.acc ^= o.cfg.F.CoordData(o.cfg.Label(1-o.round), value)
	}
	if o.round == o.cfg.N && value != o.d {
		ctx.Abort() // own data value failed to return
	}
}

func (o *origin) receiveValidation(ctx *sim.Context, value int64) {
	if value < 0 || value >= o.cfg.M {
		ctx.Abort()
		return
	}
	if o.round == 1 {
		if value != o.v {
			ctx.Abort()
			return
		}
	} else {
		if o.round <= o.cfg.N-o.cfg.L {
			o.acc ^= o.cfg.F.CoordVal(o.round, value)
		}
		ctx.Send(value)
	}
	if o.round == o.cfg.N {
		ctx.Terminate(o.cfg.F.Finalize(o.acc))
		return
	}
	ctx.Send(o.buffer) // open the next round
	o.round++
}
