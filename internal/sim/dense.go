package sim

import (
	"errors"
	"fmt"
)

// DenseRun executes cfg on the dense reference interpreter: the textbook
// event loop that sweeps every processor round-robin and delivers one
// message per live processor per sweep, paying O(n) per scheduling decision
// where the production Network's pending ring pays O(1) per active event.
//
// It exists as an independently written oracle for the sparse kernel, not as
// a runtime: the differential tests pin the Network's outcome distributions
// against it across every ring scenario. It shares none of the Network's
// delivery machinery — its own per-link FIFO queues, its own sweep order —
// but draws the identical per-processor PRNG streams (NewStream(seed, id)),
// applies the identical failure classification, and mirrors the Network's
// message accounting: sends to an already-terminated processor are dropped
// at send time without consuming a step, deliveries to a processor that
// terminated after the send drop at delivery time and do consume one.
//
// cfg.Scheduler is ignored — the round-robin sweep is the schedule — and so
// is cfg.Tracer. On the unidirectional ring (per-link FIFO pins every local
// computation, Section 2) this changes no outcome, which is exactly the
// claim the differential tests exercise. cfg.StepLimit defaults to the
// Network's 64·n² + 4096.
func DenseRun(cfg Config) (Result, error) {
	n := len(cfg.Strategies)
	if n == 0 {
		return Result{}, errors.New("sim: no strategies")
	}
	for i, s := range cfg.Strategies {
		if s == nil {
			return Result{}, fmt.Errorf("sim: nil strategy for processor %d", i+1)
		}
	}
	d := &denseNet{
		n:        n,
		links:    make([]denseLink, 0, len(cfg.Edges)),
		incoming: make([][]int, n+1),
		outgoing: make([]int, n+1),
		statuses: make([]Status, n+1),
		outputs:  make([]int64, n+1),
		sent:     make([]int, n+1),
		received: make([]int, n+1),
	}
	for i := range d.outgoing {
		d.outgoing[i] = -1
	}
	seen := make(map[Edge]bool, len(cfg.Edges))
	for _, e := range cfg.Edges {
		if e.From < 1 || int(e.From) > n || e.To < 1 || int(e.To) > n {
			return Result{}, fmt.Errorf("sim: edge %d→%d out of range [1,%d]", e.From, e.To, n)
		}
		if e.From == e.To {
			return Result{}, fmt.Errorf("sim: self-loop on processor %d", e.From)
		}
		if seen[e] {
			return Result{}, fmt.Errorf("sim: duplicate edge %d→%d", e.From, e.To)
		}
		seen[e] = true
		idx := len(d.links)
		d.links = append(d.links, denseLink{from: e.From, to: e.To})
		d.incoming[e.To] = append(d.incoming[e.To], idx)
		if d.outgoing[e.From] < 0 {
			d.outgoing[e.From] = idx
		}
	}
	d.stepLimit = cfg.StepLimit
	if d.stepLimit <= 0 {
		d.stepLimit = 64*n*n + 4096
	}
	d.ctxs = make([]Context, n+1)
	for i := 1; i <= n; i++ {
		d.statuses[i] = StatusRunning
		d.ctxs[i] = NewContext(d, ProcID(i), cfg.Seed)
	}
	for i := 1; i <= n; i++ {
		cfg.Strategies[i-1].Init(&d.ctxs[i])
	}
	d.sweep(cfg.Strategies)
	return d.result(), nil
}

// denseLink is one directed FIFO edge of the dense interpreter, with a plain
// head-indexed slice queue — clarity over the production ring buffers.
type denseLink struct {
	from  ProcID
	to    ProcID
	queue []int64
	head  int
}

func (l *denseLink) pending() int { return len(l.queue) - l.head }

func (l *denseLink) pop() int64 {
	v := l.queue[l.head]
	l.head++
	if l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
	}
	return v
}

// denseNet is the dense interpreter's Backend: strategies run on the
// interface route of Context (no devirtualization), exercising the same
// strategy code the Network runs.
type denseNet struct {
	n        int
	links    []denseLink
	incoming [][]int // link indices by destination, in edge order
	outgoing []int   // first outgoing link by source, -1 = none
	ctxs     []Context
	statuses []Status
	outputs  []int64
	sent     []int
	received []int

	pending    int
	terminated int
	delivered  int
	dropped    int
	steps      int
	stepLimit  int
}

var _ Backend = (*denseNet)(nil)

// Size implements Backend.
func (d *denseNet) Size() int { return d.n }

// Sent implements Backend.
func (d *denseNet) Sent(p ProcID) int { return d.sent[p] }

// Received implements Backend.
func (d *denseNet) Received(p ProcID) int { return d.received[p] }

// Send implements Backend: enqueue on the first outgoing link, mirroring the
// Network's send-time accounting (silent after termination, dead-link sends
// dropped without a step).
func (d *denseNet) Send(from ProcID, value int64) {
	idx := d.outgoing[from]
	if idx < 0 {
		return
	}
	d.enqueue(from, idx, value)
}

// SendTo implements Backend: enqueue towards a specific neighbour, silently
// dropping sends outside the communication graph.
func (d *denseNet) SendTo(from, to ProcID, value int64) {
	for _, idx := range d.incoming[to] {
		if d.links[idx].from == from {
			d.enqueue(from, idx, value)
			return
		}
	}
}

func (d *denseNet) enqueue(from ProcID, linkIdx int, value int64) {
	if d.statuses[from] != StatusRunning {
		return
	}
	d.sent[from]++
	l := &d.links[linkIdx]
	if d.statuses[l.to] != StatusRunning {
		d.dropped++
		return
	}
	l.queue = append(l.queue, value)
	d.pending++
}

// Terminate implements Backend.
func (d *denseNet) Terminate(id ProcID, output int64, aborted bool) {
	if d.statuses[id] != StatusRunning {
		return
	}
	if aborted {
		d.statuses[id] = StatusAborted
	} else {
		d.statuses[id] = StatusTerminated
		d.outputs[id] = output
	}
	d.terminated++
}

// sweep is the dense delivery loop: repeatedly scan all processors in id
// order and deliver at most one message to each — from its first incoming
// link with queued traffic — until the network quiesces, every processor has
// terminated, or the step budget runs out. Queued messages whose target
// terminated mid-flight are drained as delivery-time drops, each consuming a
// step like the Network's dropDeliver path.
func (d *denseNet) sweep(strategies []Strategy) {
	for d.pending > 0 && d.terminated < d.n && d.steps < d.stepLimit {
		for i := 1; i <= d.n && d.steps < d.stepLimit; i++ {
			if d.statuses[i] != StatusRunning {
				for _, idx := range d.incoming[i] {
					l := &d.links[idx]
					for l.pending() > 0 && d.steps < d.stepLimit {
						l.pop()
						d.pending--
						d.dropped++
						d.steps++
					}
				}
				continue
			}
			for _, idx := range d.incoming[i] {
				l := &d.links[idx]
				if l.pending() == 0 {
					continue
				}
				value := l.pop()
				d.pending--
				d.steps++
				d.delivered++
				d.received[i]++
				strategies[i-1].Receive(&d.ctxs[i], l.from, value)
				break
			}
		}
	}
}

// result classifies the final state with the Network's classification.
func (d *denseNet) result() Result {
	res := Result{
		Outputs:   d.outputs,
		Statuses:  d.statuses,
		Delivered: d.delivered,
		Dropped:   d.dropped,
		Steps:     d.steps,
	}
	res.Classify(d.steps >= d.stepLimit && d.pending > 0 && d.terminated < d.n)
	return res
}
