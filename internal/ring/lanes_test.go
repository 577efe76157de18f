package ring_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/attacks"
	"repro/internal/engine"
	"repro/internal/protocols/alead"
	"repro/internal/protocols/phaselead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// spyLanes is a lane protocol whose lane vectors count the runners built
// from them and the lane executions they run.
type spyLanes struct {
	ring.LaneProtocol
	builds, runs *atomic.Int64
}

func newSpy() spyLanes { return newSpyOf(alead.New()) }

func newSpyOf(p ring.LaneProtocol) spyLanes {
	return spyLanes{LaneProtocol: p, builds: new(atomic.Int64), runs: new(atomic.Int64)}
}

// BatchSafe keeps the spy's scalar path the wrapped protocol's: both lane
// protocols are batch-safe.
func (spyLanes) BatchSafe() {}

func (p spyLanes) LaneStrategies(n int, st *ring.LaneState, coalition bool) ([]sim.Strategy, error) {
	vec, err := p.LaneProtocol.LaneStrategies(n, st, coalition)
	if err != nil || vec == nil {
		return vec, err
	}
	p.builds.Add(1)
	vec[0] = spyOrigin{vec[0], p.runs}
	return vec, nil
}

// spyOrigin counts the lane executions its vector runs: the origin wakes
// once per execution.
type spyOrigin struct {
	sim.Strategy
	runs *atomic.Int64
}

func (o spyOrigin) Init(ctx *sim.Context) {
	o.runs.Add(1)
	o.Strategy.Init(ctx)
}

// noLanes hides a protocol's lane form and keeps it Batchable, so the lane
// decision is the only thing it changes.
type noLanes struct{ ring.Protocol }

func (noLanes) BatchSafe() {}

// chunkResults runs trials [start, end) of job as one chunk on arena and
// returns clones of the results it adds, in the order it adds them.
func chunkResults(t *testing.T, job engine.ChunkJob, start, end int, arena *sim.Arena) []sim.Result {
	t.Helper()
	var got []sim.Result
	if at, err := job.RunChunk(start, end, arena, func(res sim.Result) { got = append(got, res.Clone()) }); err != nil {
		t.Fatalf("chunk [%d,%d): trial %d: %v", start, end, at, err)
	}
	return got
}

// scalarResults is the reference: per-trial RunArena of spec under trial
// t's seed, for t in [start, end).
func scalarResults(t *testing.T, spec ring.Spec, start, end int) []sim.Result {
	t.Helper()
	base, arena := spec.Seed, sim.NewArena()
	var want []sim.Result
	for tr := start; tr < end; tr++ {
		spec.Seed = ring.TrialSeed(base, tr)
		res, err := ring.RunArena(spec, arena)
		if err != nil {
			t.Fatalf("trial %d: %v", tr, err)
		}
		want = append(want, res.Clone())
	}
	return want
}

// TestHonestChunkLanesMatchScalar is the lane path's differential test:
// every chunk of a plain A-LEADuni batch must add exactly the Results
// per-trial RunArena returns, in trial order, with each whole block of
// Lanes trials run as one lane execution and the rest scalar. One arena
// serves every chunk, so a runner must be built once per ring size and
// reused across chunks.
func TestHonestChunkLanesMatchScalar(t *testing.T) {
	const seed = 20180516
	arena := sim.NewArena()
	for _, n := range []int{2, 3, 16, 64, 257} {
		spy := newSpy()
		job := ring.HonestChunkJob(ring.Spec{N: n, Protocol: spy, Seed: seed}, nil)
		for _, start := range []int{0, 5} {
			for _, width := range []int{1, 15, 16, 17, 32, 33, 50} {
				end := start + width
				before := spy.runs.Load()
				got := chunkResults(t, job, start, end, arena)
				want := scalarResults(t, ring.Spec{N: n, Protocol: alead.New(), Seed: seed}, start, end)
				if len(got) != len(want) {
					t.Fatalf("n=%d [%d,%d): %d results, want %d", n, start, end, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("n=%d [%d,%d) trial %d: chunk %+v, scalar %+v", n, start, end, start+i, got[i], want[i])
					}
				}
				if runs := spy.runs.Load() - before; runs != int64(width/ring.Lanes) {
					t.Fatalf("n=%d [%d,%d): %d lane executions, want %d", n, start, end, runs, width/ring.Lanes)
				}
			}
		}
		if b := spy.builds.Load(); b != 1 {
			t.Fatalf("n=%d: built %d lane runners on one arena, want 1", n, b)
		}
	}
}

// TestHonestChunkExclusionsRunScalar pins the selection rule: a per-trial
// scheduler hook, a spec scheduler (even FIFO), a tracer, a step limit, a
// deviation or a protocol without a lane form each keep every trial on the
// scalar path, with the scalar results.
func TestHonestChunkExclusionsRunScalar(t *testing.T) {
	const n, seed, start, end = 16, 7, 3, 3 + 2*ring.Lanes + 1
	honest, err := alead.New().Strategies(n)
	if err != nil {
		t.Fatal(err)
	}
	fifoHook := func(int, int64, *sim.Arena) (sim.Scheduler, error) { return nil, nil }
	cases := []struct {
		name     string
		edit     func(*ring.Spec)
		schedFor ring.SchedulerFor
	}{
		{"SchedulerFor", func(*ring.Spec) {}, fifoHook},
		{"Scheduler", func(s *ring.Spec) { s.Scheduler = sim.FIFOScheduler{} }, nil},
		{"Tracer", func(s *ring.Spec) { s.Tracer = sim.MultiTracer{} }, nil},
		{"StepLimit", func(s *ring.Spec) { s.StepLimit = 10 * n * n }, nil},
		{"Deviation", func(s *ring.Spec) {
			s.Deviation = &ring.Deviation{Coalition: []sim.ProcID{2}, Strategies: map[sim.ProcID]sim.Strategy{2: honest[1]}}
		}, nil},
		{"NoLaneForm", func(s *ring.Spec) { s.Protocol = noLanes{s.Protocol} }, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spy := newSpy()
			spec := ring.Spec{N: n, Protocol: spy, Seed: seed}
			c.edit(&spec)
			got := chunkResults(t, ring.HonestChunkJob(spec, c.schedFor), start, end, sim.NewArena())
			if b, r := spy.builds.Load(), spy.runs.Load(); b != 0 || r != 0 {
				t.Fatalf("built %d lane runners and ran %d lane executions, want none", b, r)
			}
			if want := scalarResults(t, spec, start, end); !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk results differ from per-trial RunArena")
			}
		})
	}
}

// TestLaneBatchesSharePooledArenas runs lane batches of two ring sizes from
// several goroutines on one arena pool, so kept lane runners move between
// workers with their arenas and are replaced when the size changes: every
// batch must equal its single-worker run without a pool.
func TestLaneBatchesSharePooledArenas(t *testing.T) {
	const trials = 2*engine.DefaultChunk + 6
	ctx := context.Background()
	sizes := []int{16, 24}
	want := map[int]*ring.Distribution{}
	for _, n := range sizes {
		d, err := ring.TrialsOpts(ctx, ring.Spec{N: n, Protocol: alead.New(), Seed: int64(n)}, trials, ring.TrialOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = d
	}
	pool := engine.NewArenaPool()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				n := sizes[(g+i)%len(sizes)]
				got, err := ring.TrialsOpts(ctx, ring.Spec{N: n, Protocol: alead.New(), Seed: int64(n)}, trials,
					ring.TrialOptions{Workers: 2, Arenas: pool})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[n]) {
					t.Errorf("n=%d: pooled lane batch %v, single-worker %v", n, got, want[n])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// phaseJob builds one PhaseAsyncLead chunk job of the lane differential
// tests against the given protocol, honest or under an attack.
type phaseJob struct {
	name string
	job  func(p ring.Protocol) engine.ChunkJob
}

// phaseJobs returns the honest job and one attack job per PhaseRushing mode
// at ring size n, plus a test-only attack whose member makes every lane of
// its successor abort at the same step.
func phaseJobs(n int, proto phaselead.Protocol, seed int64) []phaseJob {
	const target = 7
	jobs := []phaseJob{{"honest", func(p ring.Protocol) engine.ChunkJob {
		return ring.HonestChunkJob(ring.Spec{N: n, Protocol: p, Seed: seed}, nil)
	}}}
	for _, atk := range []ring.Attack{
		attacks.PhaseRushing{Protocol: proto, Mode: attacks.PhaseSteer},
		attacks.PhaseRushing{Protocol: proto, Mode: attacks.PhaseBestEffort, K: 10},
		attacks.PhaseRushing{Protocol: proto, Mode: attacks.PhaseNoSteer, K: 3},
		attacks.PhaseRushing{Protocol: proto, Mode: attacks.PhaseChase, K: 3},
		memberAttack{name: "out-of-range", member: func() sim.Strategy { return outOfRange{} }},
	} {
		jobs = append(jobs, phaseJob{atk.Name(), func(p ring.Protocol) engine.ChunkJob {
			return ring.AttackChunkJob(n, p, atk, target, seed)
		}})
	}
	return jobs
}

// memberAttack is a test-only attack: one coalition member, at position 2
// or, with spread set, at a position drawn from the plan seed, running a
// fresh strategy from member. failEvery > 0 makes Plan fail for every seed
// divisible by it.
type memberAttack struct {
	name      string
	member    func() sim.Strategy
	spread    int64
	failEvery int64
}

func (a memberAttack) Name() string { return a.name }

func (a memberAttack) Plan(n int, _ int64, seed int64) (*ring.Deviation, error) {
	if a.failEvery > 0 && seed%a.failEvery == 0 {
		return nil, fmt.Errorf("seed %d refused", seed)
	}
	pos := sim.ProcID(2)
	if a.spread > 0 {
		pos += sim.ProcID(uint64(seed) % uint64(a.spread))
	}
	return &ring.Deviation{Coalition: []sim.ProcID{pos}, Strategies: map[sim.ProcID]sim.Strategy{pos: a.member()}}, nil
}

// outOfRange answers every receive with a value outside every lane's data
// range, so its successor aborts at the same step in every lane.
type outOfRange struct{}

func (outOfRange) Init(*sim.Context) {}

func (outOfRange) Receive(ctx *sim.Context, _ sim.ProcID, _ int64) { ctx.Send(-1) }

// splitter forwards every message, and a second copy too when its Init
// draw says so: its lanes send one or two messages per step depending on a
// per-lane draw, which no lane execution can carry.
type splitter struct{ twice bool }

func (s *splitter) Init(ctx *sim.Context) { s.twice = ctx.Rand().Int63n(2) == 1 }

func (s *splitter) Receive(ctx *sim.Context, _ sim.ProcID, v int64) {
	ctx.Send(v)
	if s.twice {
		ctx.Send(v)
	}
}

// silent aborts on its first receive.
type silent struct{}

func (silent) Init(*sim.Context) {}

func (silent) Receive(ctx *sim.Context, _ sim.ProcID, _ int64) { ctx.Abort() }

// sameResults fails the test unless got equals want, Result for Result.
func sameResults(t *testing.T, what string, got, want []sim.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: result %d: lanes %+v, scalar %+v", what, i, got[i], want[i])
		}
	}
}

// TestPhaseLeadChunkLanesMatchScalar is the differential test of
// PhaseAsyncLead's lane path, honest and under coalitions: every chunk of
// the honest job and of an AttackChunkJob in each PhaseRushing mode must add
// exactly the scalar loop's Results (the same job with the lane form
// hidden), with each whole block of Lanes trials run as one lane execution
// and none diverged. n = 144 has L = 120, so its honest processors fold
// validation coordinates; at n = 100, L = n and they fold none.
func TestPhaseLeadChunkLanesMatchScalar(t *testing.T) {
	const seed = 20180516
	proto := phaselead.NewDefault()
	for _, n := range []int{100, 144} {
		for _, pj := range phaseJobs(n, proto, seed) {
			spy := newSpyOf(proto)
			job := pj.job(spy)
			want := chunkResults(t, pj.job(noLanes{proto}), 0, 5+33, sim.NewArena())
			arena := sim.NewArena()
			for _, start := range []int{0, 5} {
				for _, width := range []int{1, 15, 16, 17, 32, 33} {
					end := start + width
					what := fmt.Sprintf("n=%d %s [%d,%d)", n, pj.name, start, end)
					runs := spy.runs.Load()
					ran, diverged := ring.LaneBlocks()
					sameResults(t, what, chunkResults(t, job, start, end, arena), want[start:end])
					ran2, diverged2 := ring.LaneBlocks()
					if got := spy.runs.Load() - runs; got != int64(width/ring.Lanes) || ran2-ran != got {
						t.Fatalf("%s: %d lane executions (%d counted), want %d", what, got, ran2-ran, width/ring.Lanes)
					}
					if diverged2 != diverged {
						t.Fatalf("%s: %d blocks diverged", what, diverged2-diverged)
					}
				}
			}
			if b := spy.builds.Load(); b != 1 {
				t.Fatalf("n=%d %s: built %d lane runners on one arena, want 1", n, pj.name, b)
			}
		}
	}
}

// TestPhaseLeadLanesDivergeToScalar runs a coalition member whose lanes
// send one or two messages per step, as a per-lane draw decides: every lane
// block must diverge, be counted as diverged, and rerun scalar, so the
// chunk still adds the scalar loop's Results.
func TestPhaseLeadLanesDivergeToScalar(t *testing.T) {
	const n, seed, start, end = 100, 11, 3, 3 + 2*ring.Lanes + 1
	proto := phaselead.NewDefault()
	atk := memberAttack{name: "split", member: func() sim.Strategy { return &splitter{} }}
	spy := newSpyOf(proto)
	ran, diverged := ring.LaneBlocks()
	got := chunkResults(t, ring.AttackChunkJob(n, spy, atk, 3, seed), start, end, sim.NewArena())
	ran2, diverged2 := ring.LaneBlocks()
	if ran2-ran != 2 || diverged2-diverged != 2 {
		t.Fatalf("%d lane blocks ran and %d diverged, want 2 and 2", ran2-ran, diverged2-diverged)
	}
	want := chunkResults(t, ring.AttackChunkJob(n, noLanes{proto}, atk, 3, seed), start, end, sim.NewArena())
	sameResults(t, "split", got, want)
}

// TestPhaseLeadLanesDeclineRunScalar pins the blocks that never become
// lane executions and run scalar with the scalar loop's Results: a
// placement drawn from the plan seed (the block's coalitions differ), a
// plan error inside a block (the chunk returns the scalar loop's PlanError
// at the same trial, after the same Results), and a validation alphabet
// beyond int32 (no lane form, no error).
func TestPhaseLeadLanesDeclineRunScalar(t *testing.T) {
	const n, seed = 100, 5
	proto := phaselead.NewDefault()
	wide := phaselead.New(phaselead.Params{M: math.MaxInt32 + 1})
	failing := memberAttack{name: "refusing", member: func() sim.Strategy { return silent{} }, failEvery: 5}
	// The plan error must land inside a lane block: find a block start s
	// from which the scalar loop runs three trials and then fails.
	s := -1
	for try := 0; try < 64 && s < 0; try++ {
		at, err := ring.AttackChunkJob(n, noLanes{proto}, failing, 3, seed).RunChunk(try, try+ring.Lanes, sim.NewArena(), func(sim.Result) {})
		if err != nil && at >= try+3 {
			s = try
		}
	}
	if s < 0 {
		t.Fatal("no block of the first 64 trials fails its plan after its third trial")
	}
	cases := []struct {
		name       string
		proto      phaselead.Protocol
		job        func(p ring.Protocol) engine.ChunkJob
		start, end int
	}{
		{"seed-dependent placement", proto, func(p ring.Protocol) engine.ChunkJob {
			atk := memberAttack{name: "spread", member: func() sim.Strategy { return silent{} }, spread: 3}
			return ring.AttackChunkJob(n, p, atk, 3, seed)
		}, 0, 2 * ring.Lanes},
		{"plan error inside a block", proto, func(p ring.Protocol) engine.ChunkJob {
			return ring.AttackChunkJob(n, p, failing, 3, seed)
		}, s, s + 2*ring.Lanes},
		{"M beyond int32, honest", wide, func(p ring.Protocol) engine.ChunkJob {
			return ring.HonestChunkJob(ring.Spec{N: n, Protocol: p, Seed: seed}, nil)
		}, 0, 2 * ring.Lanes},
		{"M beyond int32, attacked", wide, func(p ring.Protocol) engine.ChunkJob {
			return ring.AttackChunkJob(n, p, attacks.PhaseRushing{Protocol: wide}, 3, seed)
		}, 0, 2 * ring.Lanes},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(job engine.ChunkJob) ([]sim.Result, int, error) {
				var got []sim.Result
				at, err := job.RunChunk(c.start, c.end, sim.NewArena(), func(res sim.Result) { got = append(got, res.Clone()) })
				return got, at, err
			}
			spy := newSpyOf(c.proto)
			ran, _ := ring.LaneBlocks()
			got, at, err := run(c.job(spy))
			if ran2, _ := ring.LaneBlocks(); ran2 != ran || spy.runs.Load() != 0 {
				t.Fatalf("%d lane blocks ran, want none", ran2-ran)
			}
			want, wantAt, wantErr := run(c.job(noLanes{c.proto}))
			sameResults(t, c.name, got, want)
			if (err == nil) != (wantErr == nil) || (err != nil && (at != wantAt || err.Error() != wantErr.Error())) {
				t.Fatalf("chunk ended at %d with %v; scalar loop at %d with %v", at, err, wantAt, wantErr)
			}
			var pe *ring.PlanError
			if err != nil && !errors.As(err, &pe) {
				t.Fatalf("error %v is not a PlanError", err)
			}
		})
	}
}

// TestAttackLaneBatchesSharePooledArenas runs PhaseRushing batches of two
// ring sizes and two targets from several goroutines on one arena pool, so
// kept coalition runners and reused plans move between workers with their
// arenas and are replaced when the size or target changes: every batch
// must equal its single-worker run without a pool.
func TestAttackLaneBatchesSharePooledArenas(t *testing.T) {
	const trials = engine.DefaultChunk + 2*ring.Lanes + 5
	ctx := context.Background()
	proto := phaselead.NewDefault()
	spec := func(i int) ring.AttackSpec {
		n := []int{100, 144}[i%2]
		return ring.AttackSpec{N: n, Protocol: proto, Attack: attacks.PhaseRushing{Protocol: proto},
			Target: int64(3 + i/2), Seed: int64(n)}
	}
	want := map[int]*ring.Distribution{}
	for i := range 4 {
		d, err := ring.RunAttackTrials(ctx, spec(i), trials, ring.TrialOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	pool := engine.NewArenaPool()
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 4 {
				i := (g + j) % 4
				got, err := ring.RunAttackTrials(ctx, spec(i), trials, ring.TrialOptions{Workers: 2, Arenas: pool})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("batch %d: pooled lane batch %v, single-worker %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
