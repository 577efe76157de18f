// Package alead implements A-LEADuni, the buffering secret-sharing fair
// leader election protocol for an asynchronous unidirectional ring, due to
// Abraham, Dolev & Halpern and reformulated by Afek et al. (Section 3 and
// Appendix A of Yifrach & Mansour).
//
// Every processor draws a secret d_i. Processor 1, the origin, wakes up
// spontaneously and acts as a pipe: it sends d_1, then forwards messages
// immediately. Every other processor is a buffer of size one: it answers
// each incoming message by releasing the previously buffered value, which
// delays the flow by one round per processor and forces every processor to
// commit to its secret before learning the others. After n rounds every
// processor has seen all n secrets; it verifies that its own secret returned
// as the final message (aborting otherwise, the "punishment" of Section 2)
// and elects the leader indexed by the sum of all secrets modulo n.
//
// Note on the paper's pseudo-code: Appendix A's origin terminates after n−1
// receives, which loses the origin's own value and fails validation even in
// honest executions. This implementation follows the verbal description: the
// origin forwards n−1 messages and consumes its n-th incoming message for
// validation and the final sum only. Honest-run tests pin this behaviour.
package alead

import (
	"repro/internal/ring"
	"repro/internal/sim"
)

// Protocol is A-LEADuni. The zero value is ready to use.
type Protocol struct{}

var _ ring.LaneProtocol = Protocol{}

// New returns the A-LEADuni protocol.
func New() Protocol { return Protocol{} }

// Name implements ring.Protocol.
func (Protocol) Name() string { return "A-LEADuni" }

// BatchSafe marks the protocol's strategies as fully re-initialized by Init,
// so one strategy vector can serve every trial of an engine chunk.
func (Protocol) BatchSafe() {}

// LaneStrategies implements ring.LaneProtocol: ring's sum-ring lane vector
// with the origin forwarding and every other processor buffering one
// secret, as in Strategies (see ring.SumLanes).
func (Protocol) LaneStrategies(n int, st *ring.LaneState, coalition bool) ([]sim.Strategy, error) {
	return ring.SumLanes(n, st, coalition, true)
}

// Strategies implements ring.Protocol: processor 1 is the origin, the rest
// are normal (buffering) processors.
func (Protocol) Strategies(n int) ([]sim.Strategy, error) {
	strategies := make([]sim.Strategy, n)
	strategies[0] = &origin{n: n}
	for i := 1; i < n; i++ {
		strategies[i] = &normal{n: n}
	}
	return strategies, nil
}

// origin is processor 1: it wakes up spontaneously, sends its secret, and
// forwards incoming messages without delay.
type origin struct {
	n        int
	secret   int64
	sum      int64
	received int
}

var _ sim.Strategy = (*origin)(nil)

// Init sends the origin's secret, the message that starts the election. It
// re-establishes all execution state, so a strategy object reused across
// batched trials behaves exactly like a fresh one.
func (o *origin) Init(ctx *sim.Context) {
	o.sum, o.received = 0, 0
	o.secret = ctx.Rand().Int63n(int64(o.n))
	ctx.Send(o.secret)
}

// Receive forwards the first n−1 messages immediately and consumes the n-th:
// it must be the origin's own secret, returned after one full circulation.
func (o *origin) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	value = ring.Mod(value, o.n)
	o.received++
	// value is reduced, so the raw sum stays ≤ n² and one reduction inside
	// LeaderFromSum at termination replaces one per message.
	o.sum += value
	if o.received < o.n {
		ctx.Send(value)
		return
	}
	if value != o.secret {
		ctx.Abort()
		return
	}
	ctx.Terminate(ring.LeaderFromSum(o.sum, o.n))
}

// normal is a non-origin processor: a buffer of size one. Its initial buffer
// content is its own secret, so its first outgoing message commits it to d_i
// before it has learned anything.
type normal struct {
	n        int
	secret   int64
	buffer   int64
	sum      int64
	received int
}

var _ sim.Strategy = (*normal)(nil)

// Init draws the secret and stores it in the buffer (Appendix A lines 2-3),
// resetting all execution state for batched strategy reuse.
func (p *normal) Init(ctx *sim.Context) {
	p.sum, p.received = 0, 0
	p.secret = ctx.Rand().Int63n(int64(p.n))
	p.buffer = p.secret
}

// Receive releases the buffered value, buffers the incoming one, and on the
// n-th receive validates that the incoming value is the processor's own
// secret (Appendix A lines 6-16).
func (p *normal) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	value = ring.Mod(value, p.n)
	ctx.Send(p.buffer)
	p.received++
	p.buffer = value
	p.sum += value // reduced once at termination; see origin.Receive
	if p.received < p.n {
		return
	}
	if value != p.secret {
		ctx.Abort()
		return
	}
	ctx.Terminate(ring.LeaderFromSum(p.sum, p.n))
}
