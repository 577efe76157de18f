// Package service is the resident simulation daemon behind cmd/fleserve: a
// long-running HTTP front end over the scenario registry that batches,
// deduplicates, caches, and streams Monte-Carlo work instead of
// recomputing every request from scratch.
//
// Every job is one content-addressed record moving through one lifecycle:
// submit (validate the whole batch, then join an identical job in flight,
// replay a cached result, or start a fresh run), execute (run the work,
// marshal, cache), retire, lookup and cancel. Two payloads use it:
//
//   - Trial batches (POST /jobs, Job, JobState): a scenario run keyed by
//     scenario.JobKey, streaming deterministic prefix snapshots — trials
//     completed plus the running bias estimate under its Wilson interval.
//   - Certification sweeps (POST /certify, CertJob, CertState): an
//     equilibrium best-response sweep keyed by equilibrium.Key, streaming
//     one line per finished deviation candidate.
//
// A payload supplies only what differs: its request's validation and
// content address, and the work function that computes the value to
// marshal. Every trial job is split into chunks on the node's chunk queue
// and merged in chunk order, so a job of one chunk still streams the
// engine's prefixes. Every engine run (a chunk, a leased chunk, a sweep)
// holds one of Config.Parallel slots, and its workers draw recycled
// sim.Arena workspaces from one shared engine.ArenaPool.
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
// A node runs in one of three roles. A coordinator is a single node that
// also leases its chunks to workers at /chunks/*, so results are
// byte-identical to a single node at any fleet size. A worker owns no
// jobs, starts no local claimants and only claims chunks from the
// coordinator it joined. An idle worker's claim waits on the coordinator,
// in the same queue as the coordinator's own claimants, until a chunk is
// queued. A local claimant takes an engine slot before it takes a chunk,
// so a chunk queued while every slot of its node is busy goes to an idle
// worker instead of waiting there.
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
