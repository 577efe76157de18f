package repro

import (
	"context"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/service"
)

// The simulation service: a resident daemon (cmd/fleserve) that exposes the
// scenario registry over HTTP with batched scheduling, in-flight
// deduplication, a content-addressed result cache, and NDJSON progress
// streaming.
type (
	// ServiceConfig tunes one daemon instance (address, engine workers
	// per job, concurrent jobs, result cache byte budget, code version).
	ServiceConfig = service.Config
	// ServiceServer is a daemon instance; embed its Handler or run
	// ListenAndServe.
	ServiceServer = service.Server
	// ServiceClient is a typed HTTP client for a running daemon.
	ServiceClient = service.Client
	// ServiceJobRequest describes one unit of trial work for POST /jobs.
	ServiceJobRequest = service.JobRequest
	// ServiceJobState is a job's wire state: status, progress snapshot,
	// and (when done) the exact cached result bytes.
	ServiceJobState = service.JobState
	// ServiceStats is the daemon's /statz payload: cache hit rate,
	// worker utilization, trial throughput.
	ServiceStats = service.Stats
	// ScenarioSnapshot is one deterministic progress point of a running
	// trial batch (trials completed plus the running bias estimate under
	// its Wilson interval).
	ScenarioSnapshot = scenario.Snapshot
	// TrialArenaPool recycles per-worker simulation arenas across trial
	// batches (TrialOptions.Arenas, ScenarioOpts.Arenas); one pool shared
	// by many batches keeps workspaces resident across jobs.
	TrialArenaPool = engine.ArenaPool
)

// NewServiceServer builds a daemon instance without binding a socket; use
// its Handler to embed the API, or ListenAndServe to run it. It fails only
// on an unusable cache directory or fleet configuration.
func NewServiceServer(cfg ServiceConfig) (*ServiceServer, error) { return service.New(cfg) }

// Serve runs the simulation service daemon on cfg.Addr until ctx is
// canceled, then shuts down gracefully. It is what cmd/fleserve calls.
func Serve(ctx context.Context, cfg ServiceConfig) error {
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	return srv.ListenAndServe(ctx)
}

// NewServiceClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewServiceClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// NewTrialArenaPool returns an empty arena pool for persistent-arena trial
// batches.
func NewTrialArenaPool() *TrialArenaPool { return engine.NewArenaPool() }

// ServiceBuildVersion returns the code revision used in job cache keys: the
// VCS revision baked into the binary, or "dev" when none is recorded.
func ServiceBuildVersion() string { return service.BuildVersion() }
