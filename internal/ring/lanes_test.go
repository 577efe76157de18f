package ring_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols/alead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// spyLanes is A-LEADuni whose lane form counts the runners it builds and
// the lane executions they run.
type spyLanes struct {
	alead.Protocol
	builds, runs *atomic.Int64
}

func newSpy() spyLanes { return spyLanes{builds: new(atomic.Int64), runs: new(atomic.Int64)} }

func (p spyLanes) NewLaneRunner(n int) (ring.LaneRunner, error) {
	r, err := p.Protocol.NewLaneRunner(n)
	if err != nil {
		return nil, err
	}
	p.builds.Add(1)
	return spyRunner{r, p.runs}, nil
}

type spyRunner struct {
	ring.LaneRunner
	runs *atomic.Int64
}

func (r spyRunner) Run(arena *sim.Arena, seeds [ring.Lanes]int64) ([]sim.Result, error) {
	r.runs.Add(1)
	return r.LaneRunner.Run(arena, seeds)
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
