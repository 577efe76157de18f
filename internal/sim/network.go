package sim

import (
	"errors"
	"fmt"
)

// Status is the lifecycle state of a processor.
type Status int

// Processor lifecycle states.
const (
	// StatusRunning means the processor has not yet produced an output.
	StatusRunning Status = iota + 1
	// StatusTerminated means the processor terminated with a valid output.
	StatusTerminated
	// StatusAborted means the processor terminated with output ⊥.
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusTerminated:
		return "terminated"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Edge is a directed FIFO link of the communication graph.
type Edge struct {
	From ProcID
	To   ProcID
}

// Config describes one execution of a protocol (or adversarial deviation).
type Config struct {
	// Strategies[i] drives processor i+1. Its length determines n.
	// Strategy objects carry per-execution state, so build a fresh vector
	// for every configuration (as every Protocol.Strategies call does);
	// passing objects that already ran an execution — including to a
	// Network Reset — yields undefined behaviour unless their Init fully
	// re-establishes initial state.
	Strategies []Strategy

	// Edges are the directed FIFO links. Use RingEdges for the
	// unidirectional ring topology.
	Edges []Edge

	// Seed determines all processor-local randomness for the execution.
	Seed int64

	// Scheduler picks the delivery order among pending messages. It must
	// be oblivious (payload-independent). Defaults to FIFO order, which on
	// a unidirectional ring is equivalent to every other schedule.
	Scheduler Scheduler

	// Tracer, if non-nil, observes every send, delivery and termination.
	Tracer Tracer

	// StepLimit bounds the number of deliveries; executions exceeding it
	// are classified as running forever (outcome FAIL). Defaults to
	// 64·n² + 4096, far above any protocol in this repository.
	StepLimit int
}

// schedKind tags the concrete scheduler type so the delivery loop can
// dispatch without an interface call per message. Unknown implementations
// fall back to the interface (schedGeneric).
type schedKind uint8

const (
	schedFIFO schedKind = iota
	schedLIFO
	schedRandom
	schedGeneric
)

// link is one directed FIFO edge. In non-FIFO scheduling modes each link
// carries its own power-of-two ring buffer of undelivered payloads (head and
// tail are absolute counters; index = ctr & (len−1)); in FIFO mode payloads
// ride inline in the network's pending ring and the per-link queue stays
// empty.
type link struct {
	from  ProcID
	to    ProcID
	queue []int64
	head  int
	tail  int
}

func (l *link) push(v int64) {
	if l.tail-l.head == len(l.queue) {
		l.grow()
	}
	l.queue[l.tail&(len(l.queue)-1)] = v
	l.tail++
}

func (l *link) pop() int64 {
	v := l.queue[l.head&(len(l.queue)-1)]
	l.head++
	return v
}

func (l *link) grow() {
	newCap := len(l.queue) * 2
	if newCap == 0 {
		newCap = 16
	}
	grown := make([]int64, newCap)
	count := l.tail - l.head
	for i := 0; i < count; i++ {
		grown[i] = l.queue[(l.head+i)&(len(l.queue)-1)]
	}
	l.queue = grown
	l.head, l.tail = 0, count
}

// procState holds the cold per-processor state: the strategy, its context
// and its final output. The fields touched on every message — status, send
// and receive counters, default-route cache — live in the Network's parallel
// structure-of-arrays slices instead, so the per-message loop walks a few
// kilobytes of hot arrays rather than striding through ~100-byte structs
// that fall out of L1 on large rings.
type procState struct {
	strategy Strategy
	ctx      Context
	output   int64
}

// pendSlot is one undelivered message in the pending ring: routing metadata
// and payload interleaved so a push or pop touches a single cache line.
type pendSlot struct {
	meta int64
	val  int64
}

// hotProc packs the per-processor fields every message touches into one
// 16-byte record, so a send reads exactly two cache lines of processor state
// (the sender's record and the target's) and a delivery reads one: status and
// the receive counter share a line, and the route cache and send counter
// share the sender's.
type hotProc struct {
	// outTo is the destination of the processor's default route, −1 when the
	// processor cannot send — either it has no outgoing link or it has
	// already terminated (Terminate clears the route, folding the
	// sender-alive check into the route load; configure re-establishes it).
	outTo int32
	// status mirrors the processor's Status as an int32.
	status   int32
	sent     int32
	received int32
}

// Network is an executor for one configuration. Build with New, run with
// Run. A Network is single-use per configuration: Run executes at most once
// until Reset reinstates a (possibly different) configuration on the same
// backing memory, which is how trial arenas run thousands of executions
// without rebuilding the network each time.
type Network struct {
	n        int
	procs    []procState // index by ProcID; slot 0 unused
	links    []link
	outLinks [][]int // per ProcID, indices into links

	// Hot per-processor state, indexed by ProcID with slot 0 unused. Every
	// send and delivery works entirely on these dense 16-byte records (a few
	// KB even at n=1024) instead of striding through procState, keeping the
	// per-message working set L1-resident.
	hot []hotProc
	// outLink caches each processor's first outgoing link (index into
	// links), −1 for a processor with no outgoing links; only the non-FIFO
	// send path consults it. Refreshed by configure on every Reset.
	outLink []int32

	// The pending set is a power-of-two ring buffer of interleaved
	// meta/payload slots in global send order (payloads are consulted only
	// in FIFO mode, where global order implies per-link order and the
	// per-link queues are bypassed entirely). The metadata word is
	// schedule-dependent: in FIFO mode it packs from<<32|to so delivery
	// never dereferences the link table; in every other mode it is the
	// link index the scheduler's pick resolves through. pendHead and
	// pendTail are absolute counters; index = ctr & pendMask, where pendMask
	// is len(pend)−1. pendStop is a tail value below which a push is known
	// to fit: it trails the true limit pendHead+len(pend) until a push
	// reaches it and growPending refreshes it or grows the ring. Both are
	// kept as fields so the push stays within the inliner's budget (see
	// pushPending).
	pend     []pendSlot
	pendHead int
	pendTail int
	pendMask int
	pendStop int

	sched     Scheduler
	schedKind schedKind
	randSched *RandomScheduler
	tracer    Tracer
	// fastSend is set by configure when the schedule is global FIFO and no
	// tracer is attached: Context.Send then takes send's one-frame path.
	fastSend  bool
	stepLimit int
	// steps and delivered are materialized from pendHead and dropDeliver
	// when a run loop exits; the loops themselves maintain only pendHead
	// (the absolute pop counter doubles as the step count) and the
	// cold-branch dropDeliver.
	steps       int
	delivered   int
	dropped     int
	dropDeliver int
	terminated  int
	ran         bool

	// outBuf and statBuf back the Result of a reused network, so repeated
	// Reset/Run cycles do not allocate fresh result slices. See result().
	outBuf  []int64
	statBuf []Status
}

// RingEdges returns the edge set of the unidirectional ring 1→2→…→n→1.
func RingEdges(n int) []Edge {
	edges := make([]Edge, n)
	for i := 1; i <= n; i++ {
		to := ProcID(i%n + 1)
		edges[i-1] = Edge{From: ProcID(i), To: to}
	}
	return edges
}

// New validates the configuration and builds an executable network.
func New(cfg Config) (*Network, error) {
	net := &Network{}
	if err := net.configure(cfg); err != nil {
		return nil, err
	}
	return net, nil
}

// Reset reinstates the initial state of cfg on the network's existing
// backing memory: processor slots, link queues, the pending ring, the
// per-processor PRNG streams and the result buffers are all recycled instead
// of reallocated, and only a topology change (different size or edge set)
// rebuilds the link structures. A Reset network runs cfg exactly as a
// freshly constructed one would — bit-for-bit, including every PRNG stream —
// which is what lets trial arenas recycle one Network across thousands of
// trials (enforced by TestResetMatchesFresh and the scenario-wide property
// test).
//
// Two caveats, both consequences of the recycling:
//
//   - The Result of a previous Run on this network aliases the recycled
//     buffers; it is invalidated by Reset. Copy it first (Result.Clone) if
//     it must outlive the next trial.
//   - Reset validates the whole configuration before mutating anything, so
//     on error the network keeps its previous configuration (including the
//     already-ran flag); the failed configuration is simply not installed.
func (net *Network) Reset(cfg Config) error {
	return net.configure(cfg)
}

// configure is the shared implementation of New and Reset: it validates cfg
// before mutating anything, then (re)initializes the network in place,
// reusing existing allocations wherever capacities allow.
func (net *Network) configure(cfg Config) error {
	n := len(cfg.Strategies)
	if n == 0 {
		return errors.New("sim: no strategies")
	}
	for i, s := range cfg.Strategies {
		if s == nil {
			return fmt.Errorf("sim: nil strategy for processor %d", i+1)
		}
	}
	if net.sameTopology(n, cfg.Edges) {
		// Same communication graph as the previous configuration: keep the
		// link structures, just drain the queues.
		for i := range net.links {
			l := &net.links[i]
			l.head, l.tail = 0, 0
		}
	} else if err := net.buildTopology(n, cfg.Edges); err != nil {
		return err
	}
	net.n = n
	net.sched = cfg.Scheduler
	if net.sched == nil {
		net.sched = FIFOScheduler{}
	}
	// Resolve the concrete scheduler type once so the per-message delivery
	// loop never pays an interface call for the built-in schedulers.
	net.randSched = nil
	switch s := net.sched.(type) {
	case FIFOScheduler:
		net.schedKind = schedFIFO
	case LIFOScheduler:
		net.schedKind = schedLIFO
	case *RandomScheduler:
		net.schedKind = schedRandom
		net.randSched = s
	default:
		net.schedKind = schedGeneric
	}
	net.tracer = cfg.Tracer
	net.fastSend = net.schedKind == schedFIFO && net.tracer == nil
	net.stepLimit = cfg.StepLimit
	if net.stepLimit <= 0 {
		net.stepLimit = 64*n*n + 4096
	}
	net.pendHead, net.pendTail, net.pendStop = 0, 0, len(net.pend)
	net.steps, net.delivered, net.dropped, net.dropDeliver, net.terminated = 0, 0, 0, 0, 0
	net.ran = false
	if cap(net.procs) < n+1 {
		procs := make([]procState, n+1)
		copy(procs, net.procs)
		net.procs = procs
	} else {
		net.procs = net.procs[:n+1]
	}
	if cap(net.hot) < n+1 {
		net.hot = make([]hotProc, n+1)
		net.outLink = make([]int32, n+1)
	} else {
		net.hot = net.hot[:n+1]
		net.outLink = net.outLink[:n+1]
	}
	for i := 1; i <= n; i++ {
		p := &net.procs[i]
		p.strategy = cfg.Strategies[i-1]
		p.output = 0
		net.hot[i] = hotProc{outTo: -1, status: int32(StatusRunning)}
		net.outLink[i] = -1
		if ls := net.outLinks[i]; len(ls) > 0 {
			net.outLink[i] = int32(ls[0])
			net.hot[i].outTo = int32(net.links[ls[0]].to)
		}
		// Contexts carry no heap state under the counter-based Stream, so
		// fresh construction and arena recycling are the same three stores.
		p.ctx = NewContext(net, ProcID(i), cfg.Seed)
	}
	return nil
}

// sameTopology reports whether the network's current link structures encode
// exactly the given configuration (same size, same edges in the same order),
// in which case a Reset can skip edge validation and rebuild entirely.
func (net *Network) sameTopology(n int, edges []Edge) bool {
	if n != net.n || len(edges) != len(net.links) {
		return false
	}
	for i, e := range edges {
		if net.links[i].from != e.From || net.links[i].to != e.To {
			return false
		}
	}
	return true
}

// buildTopology validates the edge set and rebuilds the link structures,
// reusing slice capacity from any previous configuration.
func (net *Network) buildTopology(n int, edges []Edge) error {
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if e.From < 1 || int(e.From) > n || e.To < 1 || int(e.To) > n {
			return fmt.Errorf("sim: edge %d→%d out of range [1,%d]", e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("sim: self-loop on processor %d", e.From)
		}
		if seen[e] {
			return fmt.Errorf("sim: duplicate edge %d→%d", e.From, e.To)
		}
		seen[e] = true
	}
	// Rewrite link slots in place so queue capacity grown by previous
	// configurations survives a topology rebuild.
	old := net.links[:cap(net.links)]
	if len(old) < len(edges) {
		grown := make([]link, len(edges))
		copy(grown, old)
		old = grown
	}
	net.links = old[:len(edges)]
	for i, e := range edges {
		l := &net.links[i]
		l.from, l.to = e.From, e.To
		l.head, l.tail = 0, 0
	}
	if cap(net.outLinks) < n+1 {
		net.outLinks = make([][]int, n+1)
	} else {
		net.outLinks = net.outLinks[:n+1]
	}
	for i := range net.outLinks {
		net.outLinks[i] = net.outLinks[i][:0]
	}
	for idx := range net.links {
		from := net.links[idx].from
		net.outLinks[from] = append(net.outLinks[from], idx)
	}
	return nil
}

var _ Backend = (*Network)(nil)

// Size implements Backend.
func (net *Network) Size() int { return net.n }

// Send implements Backend: enqueue on the processor's first outgoing link.
// Context.Send comes here only on the general path — a tracer is attached
// or the schedule is not global FIFO; untraced FIFO sends take send. The
// destination rides in the route cache, whose −1 sentinel also encodes
// "sender already terminated".
func (net *Network) Send(from ProcID, value int64) {
	if to := net.hot[from].outTo; to >= 0 {
		net.sendOnLink(from, int(net.outLink[from]), ProcID(to), value)
	}
}

// send is the per-message primitive of every ring protocol and the only
// call Context.Send makes, which keeps Context.Send inlinable. On an
// untraced global-FIFO network (fastSend, set by configure) the whole send —
// route check, counter, dead-link drop, pending-ring push — runs in this one
// frame and touches only the sender's and target's hot records. A nil
// receiver (a foreign backend such as internal/conc) and every other network
// take the general path through the Backend interface.
func (net *Network) send(c *Context, value int64) {
	if net == nil || !net.fastSend {
		c.backend.Send(c.self, value)
		return
	}
	from := c.self
	h := &net.hot[from]
	to := ProcID(h.outTo)
	if to < 0 {
		return
	}
	h.sent++
	if net.hot[to].status != int32(StatusRunning) {
		net.dropped++ // dead link: see sendOnLink
		return
	}
	net.pushPending(pendSlot{int64(from)<<32 | int64(to), value})
}

// SendTo implements Backend: enqueue towards a specific neighbour.
func (net *Network) SendTo(from, to ProcID, value int64) {
	for _, l := range net.outLinks[from] {
		if net.links[l].to == to {
			net.sendOnLink(from, l, to, value)
			return
		}
	}
}

// sendOnLink is the general enqueue behind SendTo and Send: it reports the
// send to the tracer and, off the FIFO schedule, queues the payload on its
// link and records the link index as the pending entry's metadata.
func (net *Network) sendOnLink(from ProcID, linkIdx int, to ProcID, value int64) {
	h := &net.hot[from]
	if h.status != int32(StatusRunning) {
		return
	}
	h.sent++
	if net.tracer != nil {
		net.tracer.OnSend(from, int(h.sent), to, value)
	}
	if net.hot[to].status != int32(StatusRunning) {
		// Dead link: the target has already produced its output, so the
		// message can never be delivered. Dropping it at send time keeps it
		// out of the pick loop entirely (it consumes no scheduler step and
		// no scheduler randomness).
		net.dropped++
		return
	}
	meta := int64(from)<<32 | int64(to)
	if net.schedKind != schedFIFO {
		net.links[linkIdx].push(value)
		meta = int64(linkIdx)
	}
	net.pushPending(pendSlot{meta, value})
}

// pushPending appends one undelivered message to the pending ring. It is the
// ring's only push, and it is small enough to inline into send, so an
// untraced FIFO send pays a single call frame: the room check reads one
// field, and everything else happens in growPending.
func (net *Network) pushPending(slot pendSlot) {
	if net.pendTail == net.pendStop {
		net.growPending()
	}
	net.pend[net.pendTail&net.pendMask] = slot
	net.pendTail++
}

// growPending runs when a push reaches pendStop. If deliveries have freed
// slots since pendStop was set, it only moves pendStop up to the ring's
// true limit. Otherwise it doubles the ring without rebasing pendHead or
// pendTail: the counters stay absolute across growth because pendHead
// doubles as the execution's step count (and the step-limit check), so the
// live entries are re-slotted at their absolute positions under the new
// mask instead of being compacted to the front.
func (net *Network) growPending() {
	if net.pendTail-net.pendHead < len(net.pend) {
		net.pendStop = net.pendHead + len(net.pend)
		return
	}
	newCap := len(net.pend) * 2
	if newCap == 0 {
		newCap = 64
	}
	grown := make([]pendSlot, newCap)
	for i := net.pendHead; i < net.pendTail; i++ {
		grown[i&(newCap-1)] = net.pend[i&net.pendMask]
	}
	net.pend, net.pendMask = grown, newCap-1
	net.pendStop = net.pendHead + newCap
}

// Terminate implements Backend.
func (net *Network) Terminate(id ProcID, output int64, aborted bool) {
	h := &net.hot[id]
	if h.status != int32(StatusRunning) {
		return
	}
	if aborted {
		h.status = int32(StatusAborted)
	} else {
		h.status = int32(StatusTerminated)
		net.procs[id].output = output
	}
	// A terminated processor never sends again; clearing its route lets the
	// Send fast path fold the sender-alive check into the route load.
	h.outTo = -1
	net.terminated++
	if net.tracer != nil {
		net.tracer.OnTerminate(id, output, aborted)
	}
}

func (net *Network) pendingCount() int { return net.pendTail - net.pendHead }

// popPending removes and returns the link index of the pending entry at the
// given offset from the front. Offset 0 preserves exact FIFO order; other
// offsets move the front entry into the vacated slot, which randomized
// schedulers tolerate (they do not rely on the residual order) and which
// reproduces the historical LIFO delivery sequence exactly.
func (net *Network) popPending(offset int) int {
	idx := (net.pendHead + offset) & net.pendMask
	l := net.pend[idx].meta
	if offset != 0 {
		net.pend[idx] = net.pend[net.pendHead&net.pendMask]
	}
	net.pendHead++
	return int(l)
}

// Run executes the configuration to completion and reports the outcome.
// A Network is single-use per configuration; calling Run twice without an
// intervening Reset returns the first result.
func (net *Network) Run() Result {
	if net.ran {
		return net.result()
	}
	net.ran = true

	for i := 1; i <= net.n; i++ {
		p := &net.procs[i]
		p.strategy.Init(&p.ctx)
	}

	if net.schedKind == schedFIFO {
		net.runFIFO()
	} else {
		net.runPicked()
	}
	return net.result()
}

// runFIFO is the delivery loop for the default global-FIFO schedule: the
// oldest pending message is always next, its payload and routing (packed
// from<<32|to) ride inline in the pending ring, and no scheduler, per-link
// queue or link-table access happens at all. Step and delivery counters are
// derived once at loop exit: pendHead is the absolute pop counter, so it IS
// the step count, and deliveries are the steps that did not hit a dead
// processor — the hot loop maintains neither.
func (net *Network) runFIFO() {
	for net.pendTail > net.pendHead && net.terminated < net.n && net.pendHead < net.stepLimit {
		slot := net.pend[net.pendHead&net.pendMask]
		net.pendHead++
		from, to := ProcID(slot.meta>>32), ProcID(slot.meta&0xffffffff)
		ht := &net.hot[to]
		if ht.status != int32(StatusRunning) {
			net.dropped++
			net.dropDeliver++
			continue
		}
		ht.received++
		if net.tracer != nil {
			net.tracer.OnDeliver(to, int(ht.received), from, slot.val)
		}
		target := &net.procs[to]
		target.strategy.Receive(&target.ctx, from, slot.val)
	}
	net.steps = net.pendHead
	net.delivered = net.pendHead - net.dropDeliver
}

// runPicked is the delivery loop for every non-FIFO schedule. The scheduler
// picks a pending entry; the delivered payload is the picked link's oldest
// undelivered message (links are FIFO in the model regardless of the global
// schedule). Built-in schedulers dispatch on the pre-resolved concrete type;
// only foreign Scheduler implementations pay the interface call.
func (net *Network) runPicked() {
	defer func() {
		net.steps = net.pendHead
		net.delivered = net.pendHead - net.dropDeliver
	}()
	for {
		k := net.pendTail - net.pendHead
		if k == 0 || net.terminated >= net.n || net.pendHead >= net.stepLimit {
			return
		}
		offset := 0
		if k > 1 {
			switch net.schedKind {
			case schedLIFO:
				offset = k - 1
			case schedRandom:
				offset = net.randSched.rng.Intn(k)
			default:
				offset = net.sched.Pick(k)
				if offset < 0 || offset >= k {
					offset = 0
				}
			}
		}
		l := &net.links[net.popPending(offset)]
		value := l.pop()
		ht := &net.hot[l.to]
		if ht.status != int32(StatusRunning) {
			net.dropped++
			net.dropDeliver++
			continue
		}
		ht.received++
		if net.tracer != nil {
			net.tracer.OnDeliver(l.to, int(ht.received), l.from, value)
		}
		target := &net.procs[l.to]
		target.strategy.Receive(&target.ctx, l.from, value)
	}
}

// Sent returns how many messages processor id has sent so far. It is used by
// analyses that inspect the network mid-run via a Tracer.
func (net *Network) Sent(id ProcID) int { return int(net.hot[id].sent) }

// Received returns how many messages processor id has processed so far.
func (net *Network) Received(id ProcID) int { return int(net.hot[id].received) }
