package scenario

import (
	"fmt"

	"repro/internal/classic"
	"repro/internal/committee"
	"repro/internal/engine"
	"repro/internal/fullnet"
	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/protocols/phaselead"
	"repro/internal/protocols/sumphase"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/simgraph"
	"repro/internal/syncnet"
	"repro/internal/treeproto"
	"repro/internal/wakeup"
)

// Chunked-job builders. Each returns the scenario's canonical chunked
// engine job — the one unit both local runs (Scenario.batch → engineBatch) and
// remote shard claims (RunShard → engine.RunRange) execute — and, for ring
// topologies, the single-execution hook used by the schedule-independence
// property tests.

// ringHonest runs an honest ring protocol, building a fresh scheduler per
// trial so non-FIFO batches stay shard-safe. With SchedFIFO the batch is
// bit-identical to ring.TrialsOpts (same seed derivation, same engine).
func ringHonest(proto ring.Protocol, sched string) (chunksFunc, singleFunc) {
	chunks := func(seed int64, p params) (engine.ChunkJob, error) {
		// Chunked batch: Batchable protocols reuse one strategy vector per
		// work-claim chunk; the per-trial hook rebuilds only the scheduler
		// (recycled on the worker's arena).
		return ring.HonestChunkJob(ring.Spec{N: p.N, Protocol: proto, Seed: seed},
			func(t int, ts int64, arena *sim.Arena) (sim.Scheduler, error) {
				return newScheduler(sched, ts, arena)
			}), nil
	}
	single := func(seed int64, sc sim.Scheduler, p params, arena *sim.Arena) (sim.Result, error) {
		return ring.RunArena(ring.Spec{N: p.N, Protocol: proto, Seed: seed, Scheduler: sc}, arena)
	}
	return chunks, single
}

// ringFamilyAttack runs a registered deviation family's attack against a
// ring protocol at the resolved parameters (coalition size K, steering
// mode). The batch is exactly ring.RunAttackTrials, so registry runs
// reproduce the harness experiments byte-identically — and equilibrium
// sweeps, which plan through the very same family, reproduce the registry
// runs.
func ringFamilyAttack(base ring.Protocol, family, mode string) (chunksFunc, singleFunc) {
	plan := func(p params) (ring.Protocol, ring.Attack, error) {
		fam, ok := FindFamily(family)
		if !ok {
			return nil, nil, fmt.Errorf("no registered deviation family %q", family)
		}
		proto := base
		if fam.Proto != nil {
			proto = fam.Proto(p.N, proto)
		}
		atk, err := fam.Plan(proto, p.K, mode)
		if err != nil {
			return nil, nil, err
		}
		return proto, atk, nil
	}
	chunks := func(seed int64, p params) (engine.ChunkJob, error) {
		proto, atk, err := plan(p)
		if err != nil {
			return nil, err
		}
		return ring.AttackChunkJob(p.N, proto, atk, p.Target, seed), nil
	}
	single := func(seed int64, sc sim.Scheduler, p params, arena *sim.Arena) (sim.Result, error) {
		proto, atk, err := plan(p)
		if err != nil {
			return sim.Result{}, err
		}
		dev, err := atk.Plan(p.N, p.Target, seed)
		if err != nil {
			return sim.Result{}, fmt.Errorf("plan %s (n=%d): %w", atk.Name(), p.N, err)
		}
		return ring.RunArena(ring.Spec{N: p.N, Protocol: proto, Deviation: dev, Seed: seed, Scheduler: sc}, arena)
	}
	return chunks, single
}

// completeChunks runs the asynchronous complete-graph election with Shamir
// sharing, honestly or under the share-pooling coalition (K ≤ 0 picks the
// threshold ⌈n/2⌉, the smallest controlling coalition).
func completeChunks(attack bool) chunksFunc {
	return func(seed int64, p params) (engine.ChunkJob, error) {
		e, err := fullnet.New(p.N, 0)
		if err != nil {
			return nil, err
		}
		k := p.K
		if attack && k <= 0 {
			k = e.Threshold()
		}
		// Chunked batch: one fullnet.Runner per chunk reuses the participant
		// vector and its O(n²) share/reveal buffers across trials.
		return engine.ChunkFunc(
			func(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
				var runner *fullnet.Runner
				if attack {
					var err error
					if runner, err = e.AttackRunner(k, p.Target); err != nil {
						return start, err
					}
				} else {
					runner = e.Runner()
				}
				for t := start; t < end; t++ {
					res, err := runner.Run(trialSeed(seed, t), nil, arena)
					if err != nil {
						return t, err
					}
					add(res)
				}
				return 0, nil
			}), nil
	}
}

// committeeChunks runs the hierarchical committee-sharded election with the
// given inner discipline, honestly or under the single delegate-rush
// coalition steering the target's group and the winning-group residue.
func committeeChunks(inner string, attack bool) chunksFunc {
	return func(seed int64, p params) (engine.ChunkJob, error) {
		e, err := committee.New(p.N, inner)
		if err != nil {
			return nil, err
		}
		// Chunked batch: one committee.Runner per chunk holds the private
		// per-group-size arenas and reuses the inner strategy vectors across
		// trials; the engine worker's own arena is unused (sub-networks are
		// √n-sized, the worker arena is sized for flat n-rings).
		return engine.ChunkFunc(
			func(start, end int, _ *sim.Arena, add func(sim.Result)) (int, error) {
				var runner *committee.Runner
				if attack {
					var err error
					if runner, err = e.AttackRunner(p.Target); err != nil {
						return start, err
					}
				} else {
					runner = e.Runner()
				}
				for t := start; t < end; t++ {
					res, err := runner.Run(trialSeed(seed, t))
					if err != nil {
						return t, err
					}
					add(res)
				}
				return 0, nil
			}), nil
	}
}

// treeChunks runs the convergecast/broadcast tree election on the given tree
// family, honestly or with the dictating adversarial root.
func treeChunks(build func(n int) (*simgraph.Graph, error), rootAt func(n int) int, sched string, adversary bool) chunksFunc {
	return func(seed int64, p params) (engine.ChunkJob, error) {
		tree, err := build(p.N)
		if err != nil {
			return nil, err
		}
		proto, err := treeproto.New(tree, rootAt(p.N))
		if err != nil {
			return nil, err
		}
		// Chunked batch: one treeproto.Runner per chunk reuses the node
		// vector across trials; only the scheduler is rebuilt per trial.
		return engine.ChunkFunc(
			func(start, end int, arena *sim.Arena, add func(sim.Result)) (int, error) {
				runner := proto.Runner(adversary, p.Target)
				for t := start; t < end; t++ {
					ts := trialSeed(seed, t)
					sc, err := newScheduler(sched, ts, arena)
					if err != nil {
						return t, err
					}
					res, err := runner.Run(ts, sc, arena)
					if err != nil {
						return t, err
					}
					add(res)
				}
				return 0, nil
			}), nil
	}
}

// syncCompleteChunks runs the synchronous fully-connected election with a
// blind coalition of size K in the last positions (K = −1 resolves to n−1,
// the maximal coalition; the outcome stays uniform — nothing to rush).
func syncCompleteChunks() chunksFunc {
	return func(seed int64, p params) (engine.ChunkJob, error) {
		k := p.K
		if k < 0 {
			k = p.N - 1
		}
		// The synchronous runtime is not sim.Network-based; it ignores
		// the worker arena.
		return engine.ChunkFunc(
			func(start, end int, _ *sim.Arena, add func(sim.Result)) (int, error) {
				for t := start; t < end; t++ {
					procs, err := syncnet.NewCompleteElection(p.N, k, trialSeed(seed, t))
					if err != nil {
						return t, err
					}
					res, err := syncnet.Run(procs, p.N+4)
					if err != nil {
						return t, err
					}
					add(res)
				}
				return 0, nil
			}), nil
	}
}

// syncRingChunks runs the synchronous ring election; with tamper, processor
// 2 perturbs every forwarded value — the deviation whose only power is FAIL.
func syncRingChunks(tamper bool) chunksFunc {
	return func(seed int64, p params) (engine.ChunkJob, error) {
		return engine.ChunkFunc(
			func(start, end int, _ *sim.Arena, add func(sim.Result)) (int, error) {
				for t := start; t < end; t++ {
					ts := trialSeed(seed, t)
					procs := make([]syncnet.Processor, p.N)
					for i := 1; i <= p.N; i++ {
						proc := syncnet.NewRingSyncLead(p.N, sim.ProcID(i), ts)
						if tamper && i == 2 {
							proc.Tamper = 1
						}
						procs[i-1] = proc
					}
					res, err := syncnet.Run(procs, p.N+2)
					if err != nil {
						return t, err
					}
					add(res)
				}
				return 0, nil
			}), nil
	}
}

// registerChunked registers one scenario from its chunked-job builder,
// which local runs and remote shards alike execute.
func registerChunked(s Scenario, chunks chunksFunc) {
	s.chunks = chunks
	register(s)
}

// registerRing registers one ring scenario from its builder pair.
func registerRing(s Scenario, chunks chunksFunc, single singleFunc) {
	s.chunks, s.single = chunks, single
	register(s)
}

// pathRoot roots the path tree at its middle vertex.
func pathRoot(n int) int { return (n + 1) / 2 }

// starRoot roots the star at its center.
func starRoot(int) int { return 1 }

func init() {
	// --- Asynchronous ring: honest protocols under every scheduler kind.
	type honestRing struct {
		slug    string
		proto   ring.Protocol
		scheds  []string
		uniform bool
		note    string
	}
	allScheds := []string{SchedFIFO, SchedLIFO, SchedRandom}
	for _, h := range []honestRing{
		{"basic-lead", basiclead.New(), allScheds, true,
			"Appendix B naive protocol, honest run (uniform; broken by one adversary)"},
		{"a-lead", alead.New(), allScheds, true,
			"A-LEADuni (Section 3), honest run"},
		{"phase-lead", phaselead.NewDefault(), allScheds, true,
			"PhaseAsyncLead (Section 6), honest run"},
		{"sum-phase", sumphase.New(), []string{SchedFIFO}, true,
			"sum-output phase variant (Appendix E.4), honest run"},
		{"chang-roberts", classic.ChangRoberts{OutputPosition: true}, []string{SchedFIFO}, true,
			"classical baseline, random ids, position output (uniform winning position)"},
		{"peterson", classic.Peterson{OutputPosition: true}, []string{SchedFIFO}, true,
			"classical O(n log n) baseline, random ids, position output"},
	} {
		for _, sched := range h.scheds {
			run, single := ringHonest(h.proto, sched)
			registerRing(Scenario{
				Name:      "ring/" + h.slug + "/" + sched,
				Topology:  "ring",
				Protocol:  h.slug,
				Scheduler: sched,
				N:         16,
				Trials:    400,
				Uniform:   h.uniform,
				Note:      h.note,
				proto:     h.proto,
			}, run, single)
		}
	}

	// --- Asynchronous ring: every adversarial deviation of the paper,
	// planned through the registered deviation families so equilibrium
	// sweeps and registry runs share one planner.
	type ringAtk struct {
		protoSlug string
		proto     ring.Protocol
		attack    string
		family    string
		mode      string
		n, minN   int
		trials    int
		k         int
		target    int64
		note      string
	}
	phase := phaselead.NewDefault()
	for _, a := range []ringAtk{
		{"basic-lead", basiclead.New(), "basic-single", "basic-single", "",
			16, 4, 200, 0, 2, "Claim B.1: one adversary forces any target"},
		{"a-lead", alead.New(), "rushing-equal", "rushing", "equal",
			64, 25, 25, 0, 3, "Theorem 4.2: ⌈√n⌉ equally spaced rushers control A-LEADuni"},
		{"a-lead", alead.New(), "rushing-staggered", "rushing", "staggered",
			64, 27, 20, 0, 2, "Theorem 4.3: the cubic attack (staggered distances)"},
		{"a-lead", alead.New(), "randomized-c3", "randomized", "c3",
			256, 128, 60, 0, 7, "Theorem C.1: randomly located coalitions, C=3"},
		{"a-lead", alead.New(), "randomized-c5", "randomized", "c5",
			256, 128, 60, 0, 7, "Theorem C.1: randomly located coalitions, C=5"},
		{"a-lead", alead.New(), "half-ring", "half-ring", "",
			64, 8, 20, 0, 2, "Theorem 7.2 on the ring: ⌈n/2⌉ consecutive coalition dictates"},
		{"phase-lead", phase, "phase-rushing", "phase-rushing", "steer",
			100, 64, 15, 0, 9, "Section 6 tightness: k = √n+3 rushing controls PhaseAsyncLead"},
		{"phase-lead", phase, "phase-chase", "phase-rushing", "chase",
			100, 64, 100, 8, 5, "chase mode: validity saved, bias provably lost (Theorem 6.1 mechanism)"},
		{"phase-lead", phase, "phase-nosteer", "phase-rushing", "nosteer",
			100, 64, 100, 4, 5, "rushing without steering: validity collapses, no bias"},
		{"sum-phase", sumphase.New(), "sum-phase", "sum-phase", "",
			121, 16, 40, 0, 4, "Appendix E.4: four colluders control the sum-output variant"},
		{"phase-lead", phase, "sum-phase", "sum-phase", "",
			121, 16, 40, 0, 4, "control: the same four colluders are powerless against f"},
	} {
		run, single := ringFamilyAttack(a.proto, a.family, a.mode)
		registerRing(Scenario{
			Name:      "ring/" + a.protoSlug + "/attack=" + a.attack,
			Topology:  "ring",
			Protocol:  a.protoSlug,
			Scheduler: SchedFIFO,
			Attack:    a.attack,
			N:         a.n,
			MinN:      a.minN,
			Trials:    a.trials,
			K:         a.k,
			Target:    a.target,
			Note:      a.note,
			proto:     a.proto,
			family:    a.family,
			mode:      a.mode,
		}, run, single)
	}

	// --- Wake-up extension (Appendix H): id exchange, then A-LEADuni.
	for _, sched := range []string{SchedFIFO, SchedRandom} {
		wk := wakeup.New()
		run, single := ringHonest(wk, sched)
		registerRing(Scenario{
			Name:      "wakeup/a-lead/" + sched,
			Topology:  "wakeup",
			Protocol:  "a-lead",
			Scheduler: sched,
			N:         16,
			MinN:      4,
			Trials:    400,
			Uniform:   true,
			Note:      "wake-up id circulation then A-LEADuni re-indexed at the minimal id",
			proto:     wk,
		}, run, single)
	}
	{
		wk := wakeup.New()
		run, single := ringFamilyAttack(wk, "wakeup-rushing", "")
		registerRing(Scenario{
			Name:      "wakeup/a-lead/attack=wakeup-rushing",
			Topology:  "wakeup",
			Protocol:  "a-lead",
			Scheduler: SchedFIFO,
			Attack:    "wakeup-rushing",
			N:         64,
			MinN:      27,
			Trials:    20,
			Target:    2,
			Note:      "Section 4 attacks survive the wake-up extension (Appendix H remark)",
			proto:     wk,
			family:    "wakeup-rushing",
		}, run, single)
	}

	// --- Hierarchical committee composition: √n-sized groups running a
	// certified-fair inner protocol, composed through a delegate
	// circulation. Uniform by construction (the level-2 residue selects
	// group j with probability sizeⱼ/n), so the honest scenarios join the
	// differential matrix; the delegate-rush attack inherits Claim B.1
	// against Basic-LEAD groups and stalls against A-LEADuni groups.
	for _, inner := range []string{committee.InnerBasic, committee.InnerALead} {
		slug := "basic-lead"
		honestNote := "committee-sharded Basic-LEAD: ⌊√n⌋ groups + delegate circulation, uniform but rushable"
		attackNote := "the target group's delegate rushes both levels: Claim B.1 composes, forced w.p. 1"
		if inner == committee.InnerALead {
			slug = "a-lead"
			honestNote = "committee-sharded A-LEADuni: ⌊√n⌋ buffered groups + buffered delegate circulation"
			attackNote = "control: the same delegate-rush only stalls the buffered circulations (no bias)"
		}
		registerChunked(Scenario{
			Name:      "committee/" + slug + "/fifo",
			Topology:  "committee",
			Protocol:  slug,
			Scheduler: SchedFIFO,
			N:         256,
			MinN:      4,
			Trials:    400,
			Uniform:   true,
			Note:      honestNote,
		}, committeeChunks(inner, false))
		registerChunked(Scenario{
			Name:      "committee/" + slug + "/attack=delegate-rush",
			Topology:  "committee",
			Protocol:  slug,
			Scheduler: SchedFIFO,
			Attack:    "delegate-rush",
			N:         256,
			MinN:      4,
			Trials:    40,
			K:         1,
			Target:    2,
			Note:      attackNote,
		}, committeeChunks(inner, true))
	}

	// --- Asynchronous complete graph with Shamir sharing (Section 1.1).
	registerChunked(Scenario{
		Name:      "complete/shamir/fifo",
		Topology:  "complete",
		Protocol:  "shamir",
		Scheduler: SchedFIFO,
		N:         12,
		MinN:      3,
		Trials:    400,
		Uniform:   true,
		Note:      "commit-then-reveal secret sharing, resilient to ⌈n/2⌉−1",
	}, completeChunks(false))
	registerChunked(Scenario{
		Name:      "complete/shamir/attack=pool",
		Topology:  "complete",
		Protocol:  "shamir",
		Scheduler: SchedFIFO,
		Attack:    "pool",
		N:         12,
		MinN:      3,
		Trials:    40,
		Target:    2,
		Note:      "k = ⌈n/2⌉ pools phase-1 shares and reconstructs every secret early",
	}, completeChunks(true))

	// --- Tree topologies (Theorem 7.2: trees are 1-simulated trees).
	registerChunked(Scenario{
		Name:      "tree-path/convergecast/fifo",
		Topology:  "tree-path",
		Protocol:  "convergecast",
		Scheduler: SchedFIFO,
		N:         11,
		MinN:      2,
		Trials:    400,
		Uniform:   true,
		Note:      "convergecast/broadcast election on the path, rooted at the middle",
	}, treeChunks(simgraph.Path, pathRoot, SchedFIFO, false))
	registerChunked(Scenario{
		Name:      "tree-path/convergecast/random",
		Topology:  "tree-path",
		Protocol:  "convergecast",
		Scheduler: SchedRandom,
		N:         11,
		MinN:      2,
		Trials:    400,
		Uniform:   true,
		Note:      "same election under a random oblivious schedule (trees genuinely interleave)",
	}, treeChunks(simgraph.Path, pathRoot, SchedRandom, false))
	registerChunked(Scenario{
		Name:      "tree-star/convergecast/fifo",
		Topology:  "tree-star",
		Protocol:  "convergecast",
		Scheduler: SchedFIFO,
		N:         9,
		MinN:      2,
		Trials:    400,
		Uniform:   true,
		Note:      "convergecast election on the star, rooted at the center",
	}, treeChunks(simgraph.Star, starRoot, SchedFIFO, false))
	registerChunked(Scenario{
		Name:      "tree-path/convergecast/attack=dictator-root",
		Topology:  "tree-path",
		Protocol:  "convergecast",
		Scheduler: SchedFIFO,
		Attack:    "dictator-root",
		N:         11,
		MinN:      3,
		Trials:    40,
		K:         1,
		Target:    3,
		Note:      "a single rational root dictates: trees are 1-simulated trees",
	}, treeChunks(simgraph.Path, pathRoot, SchedFIFO, true))

	// --- Synchronous models (Section 1.1: nothing to rush).
	registerChunked(Scenario{
		Name:      "sync-complete/complete-lead/honest",
		Topology:  "sync-complete",
		Protocol:  "complete-lead",
		Scheduler: SchedLockstep,
		N:         12,
		MinN:      2,
		Trials:    400,
		Uniform:   true,
		Note:      "lock-step complete graph: commit secrets in round 1, sum in round 2",
	}, syncCompleteChunks())
	registerChunked(Scenario{
		Name:      "sync-complete/complete-lead/attack=blind-coalition",
		Topology:  "sync-complete",
		Protocol:  "complete-lead",
		Scheduler: SchedLockstep,
		Attack:    "blind-coalition",
		N:         12,
		MinN:      2,
		Trials:    400,
		K:         -1,
		Uniform:   true,
		Note:      "k = n−1 blind constants gain nothing: the outcome stays uniform",
	}, syncCompleteChunks())
	registerChunked(Scenario{
		Name:      "sync-ring/ring-sync-lead/honest",
		Topology:  "sync-ring",
		Protocol:  "ring-sync-lead",
		Scheduler: SchedLockstep,
		N:         12,
		MinN:      2,
		Trials:    400,
		Uniform:   true,
		Note:      "lock-step ring: forward the previous round's value; resilient to n−1",
	}, syncRingChunks(false))
	registerChunked(Scenario{
		Name:      "sync-ring/ring-sync-lead/attack=tamper",
		Topology:  "sync-ring",
		Protocol:  "ring-sync-lead",
		Scheduler: SchedLockstep,
		Attack:    "tamper",
		N:         12,
		MinN:      3,
		Trials:    40,
		K:         1,
		Note:      "a tampering forwarder destroys (FAIL) but never steers",
	}, syncRingChunks(true))
}
