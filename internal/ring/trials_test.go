package ring

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestDistributionAccounting(t *testing.T) {
	d := NewDistribution(4)
	d.Add(sim.Result{Output: 2, Delivered: 10})
	d.Add(sim.Result{Output: 2, Delivered: 10})
	d.Add(sim.Result{Output: 4, Delivered: 10})
	d.Add(sim.Result{Failed: true, Reason: sim.FailAbort, Delivered: 5})
	d.Add(sim.Result{Failed: true, Reason: sim.FailMismatch, Delivered: 5})
	d.Add(sim.Result{Output: 99}) // out of range: counted as mismatch

	if d.Trials != 6 {
		t.Errorf("trials = %d", d.Trials)
	}
	if d.Messages != 40 {
		t.Errorf("messages = %d", d.Messages)
	}
	if d.Failures() != 3 {
		t.Errorf("failures = %d, want 3 (abort + mismatch + out-of-range)", d.Failures())
	}
	if got := d.WinRate(2); got != 2.0/6 {
		t.Errorf("WinRate(2) = %v", got)
	}
	if got := d.FailureRate(); got != 0.5 {
		t.Errorf("FailureRate = %v", got)
	}
	leader, rate := d.MaxWin()
	if leader != 2 || rate != 2.0/6 {
		t.Errorf("MaxWin = (%d, %v)", leader, rate)
	}
	if s := d.String(); !strings.Contains(s, "n=4") || !strings.Contains(s, "maxwin=2") {
		t.Errorf("String() = %q", s)
	}
}

func TestEmptyDistributionIsSafe(t *testing.T) {
	d := NewDistribution(3)
	if d.WinRate(1) != 0 || d.FailureRate() != 0 {
		t.Error("empty distribution rates nonzero")
	}
	if _, rate := d.MaxWin(); rate != 0 {
		t.Error("empty distribution max win nonzero")
	}
}

func TestMaxDistance(t *testing.T) {
	if got := MaxDistance([]sim.ProcID{2, 5, 9}, 10); got != 3 {
		t.Errorf("MaxDistance = %d, want 3 (the wrap 9→2 spans 10,1)", got)
	}
	if got := MaxDistance([]sim.ProcID{6}, 10); got != 9 {
		t.Errorf("single member MaxDistance = %d, want 9", got)
	}
}

// errorProto always fails to build strategies.
type errorProto struct{}

func (errorProto) Name() string                           { return "error" }
func (errorProto) Strategies(int) ([]sim.Strategy, error) { return nil, errors.New("boom") }

// shortProto returns the wrong number of strategies.
type shortProto struct{}

func (shortProto) Name() string { return "short" }
func (shortProto) Strategies(n int) ([]sim.Strategy, error) {
	return make([]sim.Strategy, 1), nil
}

func TestRunErrorPaths(t *testing.T) {
	if _, err := Run(Spec{N: 1, Protocol: testProto{}}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Run(Spec{N: 4}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := Run(Spec{N: 4, Protocol: errorProto{}}); err == nil {
		t.Error("strategy error not propagated")
	}
	if _, err := Run(Spec{N: 4, Protocol: shortProto{}}); err == nil {
		t.Error("wrong strategy count accepted")
	}
	bad := &Deviation{Coalition: []sim.ProcID{9}}
	if _, err := Run(Spec{N: 4, Protocol: testProto{}, Deviation: bad}); err == nil {
		t.Error("invalid deviation accepted")
	}
}

// fixedAttack plants a noop deviation at position 2.
type fixedAttack struct{ fail bool }

func (fixedAttack) Name() string { return "fixed" }

func (a fixedAttack) Plan(n int, target int64, seed int64) (*Deviation, error) {
	if a.fail {
		return nil, errors.New("infeasible")
	}
	return &Deviation{
		Coalition:  []sim.ProcID{2},
		Strategies: map[sim.ProcID]sim.Strategy{2: passthrough{}},
	}, nil
}

// passthrough forwards and terminates like the testProto honest strategy.
type passthrough struct{}

func (passthrough) Init(*sim.Context) {}
func (passthrough) Receive(ctx *sim.Context, _ sim.ProcID, v int64) {
	ctx.Send(v)
	ctx.Terminate(v)
}

func TestAttackTrials(t *testing.T) {
	spec := AttackSpec{N: 8, Protocol: testProto{}, Attack: fixedAttack{}, Target: 3, Seed: 5}
	dist, err := RunAttackTrials(context.Background(), spec, 30, TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Trials != 30 {
		t.Errorf("trials = %d", dist.Trials)
	}
	spec.Attack = fixedAttack{fail: true}
	if _, err := RunAttackTrials(context.Background(), spec, 5, TrialOptions{}); err == nil {
		t.Error("plan failure not propagated")
	}
}
