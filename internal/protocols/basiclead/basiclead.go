// Package basiclead implements Basic-LEAD (Appendix B of the paper), the
// naive fair-leader-election protocol for an asynchronous unidirectional
// ring. Every processor draws a secret value, broadcasts it around the ring
// by immediate forwarding, and elects the leader determined by the sum of all
// values modulo n.
//
// With honest processors the elected leader is uniform. The protocol is not
// resilient even to a single rational adversary (Claim B.1): an adversary can
// withhold its own value until it has seen everyone else's, then choose its
// value to force any target — see the attacks package.
package basiclead

import (
	"repro/internal/ring"
	"repro/internal/sim"
)

// Protocol is the Basic-LEAD protocol. The zero value is ready to use.
type Protocol struct{}

var _ ring.LaneProtocol = Protocol{}

// New returns the Basic-LEAD protocol.
func New() Protocol { return Protocol{} }

// Name implements ring.Protocol.
func (Protocol) Name() string { return "Basic-LEAD" }

// BatchSafe marks the protocol's strategies as fully re-initialized by Init,
// so one strategy vector can serve every trial of an engine chunk.
func (Protocol) BatchSafe() {}

// LaneStrategies implements ring.LaneProtocol: ring's sum-ring lane vector
// with every processor forwarding, as in Strategies (see ring.SumLanes).
func (Protocol) LaneStrategies(n int, st *ring.LaneState, coalition bool) ([]sim.Strategy, error) {
	return ring.SumLanes(n, st, coalition, false)
}

// Strategies implements ring.Protocol. Every processor runs the same
// strategy; all wake up spontaneously and send their secret immediately.
func (Protocol) Strategies(n int) ([]sim.Strategy, error) {
	strategies := make([]sim.Strategy, n)
	for i := range strategies {
		strategies[i] = &processor{n: n}
	}
	return strategies, nil
}

// processor is one Basic-LEAD participant.
type processor struct {
	n        int
	secret   int64
	sum      int64
	received int
}

var _ sim.Strategy = (*processor)(nil)

// Init draws the secret value and broadcasts it (Basic-LEAD line 2-3),
// resetting all execution state for batched strategy reuse.
func (p *processor) Init(ctx *sim.Context) {
	p.sum, p.received = 0, 0
	p.secret = ctx.Rand().Int63n(int64(p.n))
	ctx.Send(p.secret)
}

// Receive forwards each value once and, on the n-th receive, validates that
// the processor's own value came back around the ring before terminating with
// the common sum (Basic-LEAD lines 6-14; the paper's round counter is offset
// so that exactly n−1 values are forwarded and the n-th is consumed by the
// validation).
func (p *processor) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	value = ring.Mod(value, p.n)
	p.received++
	p.sum = ring.Mod(p.sum+value, p.n)
	if p.received < p.n {
		ctx.Send(value)
		return
	}
	if value != p.secret {
		ctx.Abort()
		return
	}
	ctx.Terminate(ring.LeaderFromSum(p.sum, p.n))
}
