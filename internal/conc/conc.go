// Package conc executes ring protocols on a genuinely concurrent runtime:
// one goroutine per processor, buffered channels as FIFO links, and the Go
// scheduler as the (oblivious) message schedule. It runs the exact same
// sim.Strategy implementations as the deterministic event-driven simulator.
//
// On a unidirectional ring every processor has a single incoming FIFO link,
// so all schedules yield the same local computations (Section 2): for a
// given seed, the concurrent runtime and the event-driven simulator must
// produce identical outcomes. The cross-validation tests in this package
// check exactly that, which exercises the model's schedule-independence
// claim on a real scheduler instead of a simulated one.
//
// The runtime never leaks goroutines: processors exit when they terminate,
// when their inbox closes, or when the coordinator cancels the run; Run
// waits for all of them before returning.
package conc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
)

// Options tunes the concurrent runtime.
type Options struct {
	// LinkCapacity is the per-link channel buffer. The model's links are
	// unbounded; a capacity well above any protocol's per-link traffic
	// (ring protocols send ≤ 2n per link) preserves non-blocking sends.
	// 0 picks 8n+64. A send finding the buffer full marks the execution
	// failed rather than blocking, so misbehaving strategies cannot
	// deadlock the runtime.
	LinkCapacity int
	// StallTimeout is how long the coordinator waits without progress
	// before declaring the execution stalled (outcome FAIL, as for a
	// processor that never terminates). 0 picks 200ms.
	StallTimeout time.Duration
}

// Run executes one election on the concurrent runtime.
func Run(spec ring.Spec, opts Options) (sim.Result, error) {
	if spec.N < 2 {
		return sim.Result{}, fmt.Errorf("conc: need n ≥ 2, got %d", spec.N)
	}
	if spec.Protocol == nil {
		return sim.Result{}, errors.New("conc: nil protocol")
	}
	strategies, err := spec.Protocol.Strategies(spec.N)
	if err != nil {
		return sim.Result{}, err
	}
	if err := spec.Deviation.Validate(spec.N); err != nil {
		return sim.Result{}, err
	}
	if spec.Deviation != nil {
		for p, s := range spec.Deviation.Strategies {
			strategies[p-1] = s
		}
	}
	capacity := opts.LinkCapacity
	if capacity == 0 {
		capacity = 8*spec.N + 64
	}
	stall := opts.StallTimeout
	if stall == 0 {
		stall = 200 * time.Millisecond
	}

	rt := &runtime{
		n:        spec.N,
		links:    make([]chan int64, spec.N+1), // links[i]: i → i%n+1
		procs:    make([]procState, spec.N+1),
		done:     make(chan struct{}),
		capacity: capacity,
	}
	for i := 1; i <= spec.N; i++ {
		rt.links[i] = make(chan int64, capacity)
		rt.procs[i].status = sim.StatusRunning
	}

	var wg sync.WaitGroup
	for i := 1; i <= spec.N; i++ {
		id := sim.ProcID(i)
		ctx := sim.NewContext(rt, id, spec.Seed)
		wg.Add(1)
		go func(id sim.ProcID, ctx sim.Context, strategy sim.Strategy) {
			defer wg.Done()
			rt.runProcessor(id, &ctx, strategy)
		}(id, ctx, strategies[i-1])
	}

	// Watchdog: progress is any delivery or termination; two quiet
	// periods in a row with unterminated processors means stall.
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	ticker := time.NewTicker(stall)
	defer ticker.Stop()
	var lastActivity uint64
	for {
		select {
		case <-finished:
			return rt.result(), nil
		case <-ticker.C:
			now := atomic.LoadUint64(&rt.activity)
			if now == lastActivity {
				rt.cancel()
				<-finished
				return rt.result(), nil
			}
			lastActivity = now
		}
	}
}

type procState struct {
	mu       sync.Mutex
	status   sim.Status
	output   int64
	sent     int64 // atomics via mutex-free reads not needed; guarded
	received int64
	overflow bool
}

// runtime implements sim.Backend over channels.
type runtime struct {
	n        int
	links    []chan int64
	procs    []procState
	done     chan struct{}
	closed   sync.Once
	activity uint64
	termCnt  int64
	capacity int
}

var _ sim.Backend = (*runtime)(nil)

func (rt *runtime) cancel() { rt.closed.Do(func() { close(rt.done) }) }

func (rt *runtime) runProcessor(id sim.ProcID, ctx *sim.Context, strategy sim.Strategy) {
	strategy.Init(ctx)
	// Incoming link: predecessor → id. links[pred] where pred = id−1 (or n).
	pred := int(id) - 1
	if pred < 1 {
		pred = rt.n
	}
	inbox := rt.links[pred]
	for {
		if rt.statusOf(id) != sim.StatusRunning {
			return
		}
		select {
		case <-rt.done:
			return
		case v, ok := <-inbox:
			if !ok {
				return
			}
			p := &rt.procs[id]
			p.mu.Lock()
			running := p.status == sim.StatusRunning
			if running {
				p.received++
			}
			p.mu.Unlock()
			atomic.AddUint64(&rt.activity, 1)
			if !running {
				return
			}
			strategy.Receive(ctx, sim.ProcID(pred), v)
		}
	}
}

func (rt *runtime) statusOf(id sim.ProcID) sim.Status {
	p := &rt.procs[id]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status
}

// Size implements sim.Backend.
func (rt *runtime) Size() int { return rt.n }

// Send implements sim.Backend: the ring's unique outgoing link.
func (rt *runtime) Send(from sim.ProcID, value int64) {
	p := &rt.procs[from]
	p.mu.Lock()
	if p.status != sim.StatusRunning {
		p.mu.Unlock()
		return
	}
	p.sent++
	p.mu.Unlock()
	select {
	case rt.links[from] <- value:
		atomic.AddUint64(&rt.activity, 1)
	case <-rt.done:
	default:
		// Link buffer exhausted: a runaway strategy. Mark and stop.
		p.mu.Lock()
		p.overflow = true
		p.mu.Unlock()
		rt.cancel()
	}
}

// SendTo implements sim.Backend; on a ring only the successor is reachable.
func (rt *runtime) SendTo(from, to sim.ProcID, value int64) {
	succ := sim.ProcID(int(from)%rt.n + 1)
	if to == succ {
		rt.Send(from, value)
	}
}

// Terminate implements sim.Backend.
func (rt *runtime) Terminate(from sim.ProcID, output int64, aborted bool) {
	p := &rt.procs[from]
	p.mu.Lock()
	if p.status != sim.StatusRunning {
		p.mu.Unlock()
		return
	}
	if aborted {
		p.status = sim.StatusAborted
	} else {
		p.status = sim.StatusTerminated
		p.output = output
	}
	p.mu.Unlock()
	atomic.AddUint64(&rt.activity, 1)
	if atomic.AddInt64(&rt.termCnt, 1) == int64(rt.n) {
		rt.cancel()
	}
}

// Sent implements sim.Backend.
func (rt *runtime) Sent(p sim.ProcID) int {
	s := &rt.procs[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.sent)
}

// Received implements sim.Backend.
func (rt *runtime) Received(p sim.ProcID) int {
	s := &rt.procs[p]
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.received)
}

func (rt *runtime) result() sim.Result {
	res := sim.Result{
		Outputs:  make([]int64, rt.n+1),
		Statuses: make([]sim.Status, rt.n+1),
	}
	for i := 1; i <= rt.n; i++ {
		p := &rt.procs[i]
		p.mu.Lock()
		res.Statuses[i], res.Outputs[i] = p.status, p.output
		res.Delivered += int(p.received)
		p.mu.Unlock()
	}
	res.Classify(false)
	res.Steps = res.Delivered
	return res
}
