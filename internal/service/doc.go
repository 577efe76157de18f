// Package service is the resident simulation daemon behind cmd/fleserve: a
// long-running HTTP front end over the scenario registry that batches,
// deduplicates, caches, and streams Monte-Carlo work instead of
// recomputing every request from scratch.
//
// Every job is one content-addressed record moving through one lifecycle:
// submit (validate the whole batch, then join an identical job in flight,
// replay a cached result, or start a fresh run), execute (wait for an
// engine slot, run, marshal, cache), retire, lookup and cancel. Two
// payloads use it:
//
//   - Trial batches (POST /jobs, Job, JobState): a scenario run keyed by
//     scenario.JobKey, streaming the engine's progress snapshots — trials
//     completed plus the running bias estimate under its Wilson interval.
//   - Certification sweeps (POST /certify, CertJob, CertState): an
//     equilibrium best-response sweep keyed by equilibrium.Key, streaming
//     one line per finished deviation candidate.
//
// A payload supplies only what differs: its request's validation and
// content address, and the work function that computes the value to
// marshal. Fresh work runs on a bounded set of engine slots whose workers
// draw recycled sim.Arena workspaces from one shared engine.ArenaPool.
//
// Results are cached as exact wire bytes under their content address.
// Deterministic seeding makes a hit a bit-for-bit replay, not an
// approximation. The in-memory LRU (Cache) holds a byte budget
// (Config.CacheBytes, 2 MiB by default), not an entry count: each finished
// job is charged its result's length plus a fixed overhead for its record,
// and evicting an entry drops the finished job's record with it, so a
// resident daemon's memory does not grow with the requests it serves. A
// replay refreshes the entry's recency, whether the cache or the finished
// job's record answers it. The failed and canceled records kept for
// lookup are capped by the same budget. The in-memory tier can sit over a
// crash-safe disk tier (Config.CacheDir, package diskcache), which keeps
// every result, that a fleet's nodes share and that survives restarts.
//
// A node runs in one of three roles. A single node runs every job
// in-process. A coordinator splits distributable trial batches into chunk
// leases at /chunks/* and merges the shards in chunk order, so results and
// progress are byte-identical to a single node at any fleet size. A worker
// owns no jobs and only claims chunks from the coordinator it joined. An
// idle worker's claim waits on the coordinator, in the same queue as the
// coordinator's own claimants, until a chunk is queued.
//
// The HTTP surface is GET /scenarios; POST /jobs and POST /certify
// (batches); GET and DELETE /jobs/{id} and /certify/{id}, where GET with
// ?watch=1 streams NDJSON progress; /healthz; and /statz (alias /metrics),
// which reports cache hit rate, worker utilization, trial throughput and
// the fleet counters.
//
// The package is re-exported for library users as repro.Serve and
// repro.NewServiceClient.
package service
