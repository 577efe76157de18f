package scenario

import (
	"repro/internal/engine"
	"repro/internal/popproto"
	"repro/internal/ring"
	"repro/internal/sim"
)

// popprotoChunks runs the population-protocol self-stabilizing ring
// election, honestly or under the coalition-bias deviation pinning the
// target's labeling frame. One popproto.Runner per work-claim chunk
// recycles the label buffer across trials; the engine worker's arena is
// unused (the population model has no messages to simulate).
func popprotoChunks(attack bool) chunksFunc {
	return func(seed int64, p params) (engine.ChunkJob, error) {
		cfg := popproto.Config{N: p.N}
		if attack {
			cfg.K = p.K
			if cfg.K <= 0 {
				cfg.K = 1 // the minimal stubborn coalition already forces its target
			}
			cfg.Target = int(p.Target)
		}
		if _, err := popproto.NewRunner(cfg); err != nil {
			return nil, err
		}
		return engine.ChunkFunc(
			func(start, end int, _ *sim.Arena, add func(sim.Result)) (int, error) {
				runner, err := popproto.NewRunner(cfg)
				if err != nil {
					return start, err
				}
				for t := start; t < end; t++ {
					add(runner.Run(ring.TrialSeed(seed, t)))
				}
				return 0, nil
			}), nil
	}
}

func init() {
	// --- Population-protocol computation model (ROADMAP item 4): uniform
	// random-pair interactions on a directed ring, no messages, eventual
	// stabilization instead of termination. The honest modular-labeling
	// election is uniform by rotation symmetry of the all-zero start, so it
	// joins the differential matrix; its price is Θ(n³) expected
	// interactions against Θ(n²) messages for the flat ring elections. The
	// coalition-bias deviation pins the target's labeling frame and wins
	// with probability 1 at any coalition size.
	registerChunked(Scenario{
		Name:      "popproto/ss-ring-le/pairwise",
		Topology:  "popring",
		Protocol:  "ss-ring-le",
		Scheduler: SchedPairwise,
		N:         16,
		MinN:      2,
		Trials:    800,
		Uniform:   true,
		Note:      "self-stabilizing modular-labeling election, exactly uniform, Θ(n³) interactions",
	}, popprotoChunks(false))
	registerChunked(Scenario{
		Name:      "popproto/ss-ring-le/attack=coalition-bias",
		Topology:  "popring",
		Protocol:  "ss-ring-le",
		Scheduler: SchedPairwise,
		Attack:    "coalition-bias",
		N:         16,
		MinN:      2,
		Trials:    120,
		K:         2,
		Target:    2,
		Note:      "k agents pin the target's frame and refuse updates: forced w.p. 1",
	}, popprotoChunks(true))
}
