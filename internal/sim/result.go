package sim

import "fmt"

// FailReason classifies why an execution's outcome is FAIL.
type FailReason int

// Failure classifications, per the outcome definition in Section 2.
const (
	// FailNone means the execution did not fail.
	FailNone FailReason = iota
	// FailAbort means some processor terminated with output ⊥.
	FailAbort
	// FailMismatch means two processors terminated with different outputs.
	FailMismatch
	// FailStall means some processor never terminates: the network
	// quiesced while a processor was still waiting for a message.
	FailStall
	// FailStepLimit means the execution exceeded the delivery budget,
	// which models an execution that runs forever.
	FailStepLimit
)

// String implements fmt.Stringer.
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "none"
	case FailAbort:
		return "abort"
	case FailMismatch:
		return "mismatch"
	case FailStall:
		return "stall"
	case FailStepLimit:
		return "step-limit"
	default:
		return fmt.Sprintf("FailReason(%d)", int(r))
	}
}

// Result is the outcome of one execution.
type Result struct {
	// Failed reports outcome == FAIL.
	Failed bool
	// Reason classifies the failure; FailNone when Failed is false.
	Reason FailReason
	// Output is the common output of all processors when Failed is false.
	Output int64
	// Outputs[i] is processor i's output (meaningful where Statuses[i] is
	// StatusTerminated). Index 0 is unused. On a Network reused via Reset,
	// Outputs aliases the network's recycled result buffer and is
	// invalidated by the next Reset; Clone the result to keep it.
	Outputs []int64
	// Statuses[i] is processor i's final lifecycle state. Index 0 unused.
	// The aliasing caveat of Outputs applies.
	Statuses []Status
	// Delivered counts messages processed by running processors.
	Delivered int
	// Dropped counts messages that arrived at already-terminated
	// processors.
	Dropped int
	// Steps counts scheduler steps (delivered + dropped).
	Steps int
}

// Clone returns a deep copy of the result whose slices do not alias any
// network-owned buffer, safe to retain across a Network Reset.
func (r Result) Clone() Result {
	c := r
	c.Outputs = append([]int64(nil), r.Outputs...)
	c.Statuses = append([]Status(nil), r.Statuses...)
	return c
}

// Classify sets r's outcome — Failed, Reason and Output — from its
// per-processor Statuses and Outputs (index 0 unused), per the outcome
// definition of Section 2: any aborted processor makes the outcome FAIL
// (FailAbort), then any processor still running (FailStall), then two
// terminated processors with different outputs (FailMismatch); otherwise
// Output is the common output. stepLimited marks an execution stopped by
// its delivery budget with messages pending and processors running: it is
// FailStepLimit whatever the statuses say. It is the single copy of the FAIL
// taxonomy, shared by the Network and by runtimes that assemble a Result
// from their own per-processor state.
func (r *Result) Classify(stepLimited bool) {
	r.Failed, r.Reason, r.Output = false, FailNone, 0
	if stepLimited {
		r.Failed, r.Reason = true, FailStepLimit
		return
	}
	first := true
	var common int64
	agree := true
	anyAbort, anyRunning := false, false
	for i := 1; i < len(r.Statuses); i++ {
		switch r.Statuses[i] {
		case StatusAborted:
			anyAbort = true
		case StatusRunning:
			anyRunning = true
		case StatusTerminated:
			if out := r.Outputs[i]; first {
				common, first = out, false
			} else if out != common {
				agree = false
			}
		}
	}
	switch {
	case anyAbort:
		r.Failed, r.Reason = true, FailAbort
	case anyRunning:
		r.Failed, r.Reason = true, FailStall
	case !agree:
		r.Failed, r.Reason = true, FailMismatch
	default:
		r.Output = common
	}
}

func (net *Network) result() Result {
	// The per-processor slices live on the network so that a Reset/Run
	// cycle recycles them; they are fully overwritten below. Both caps are
	// checked so the buffers cannot drift apart if one is ever resized
	// elsewhere.
	if cap(net.outBuf) < net.n+1 || cap(net.statBuf) < net.n+1 {
		net.outBuf = make([]int64, net.n+1)
		net.statBuf = make([]Status, net.n+1)
	}
	net.outBuf = net.outBuf[:net.n+1]
	net.statBuf = net.statBuf[:net.n+1]
	net.outBuf[0], net.statBuf[0] = 0, 0
	res := Result{
		Outputs:   net.outBuf,
		Statuses:  net.statBuf,
		Delivered: net.delivered,
		Dropped:   net.dropped,
		Steps:     net.steps,
	}
	for i := 1; i <= net.n; i++ {
		res.Statuses[i] = Status(net.hot[i].status)
		res.Outputs[i] = net.procs[i].output
	}
	res.Classify(net.steps >= net.stepLimit && net.pendingCount() > 0 && net.terminated < net.n)
	return res
}
