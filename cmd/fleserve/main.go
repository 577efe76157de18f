// Command fleserve runs the fair-leader-election simulation service: a
// resident HTTP daemon over the scenario registry that batches, dedupes,
// caches, and streams Monte-Carlo trial work.
//
// Usage:
//
//	fleserve [-addr HOST:PORT] [-workers W] [-parallel P] [-cache-bytes B] [-pprof]
//	         [-role single|coordinator|worker] [-join URL] [-cache-dir DIR]
//	         [-fleet-chunk N] [-lease D] [-mar FILE]...
//
// Each -mar FILE is a MAR protocol or adversary spec (see ARCHITECTURE.md)
// compiled and registered into the catalog before the daemon starts, so
// spec'd scenarios are served exactly like the built-in ones; the embedded
// spec twins (ring/mar-basic-lead/*) are always present.
//
// Every node that accepts jobs splits a trial job into -fleet-chunk trial
// chunks that its own claimants run, and no node runs more than -parallel
// engine runs (trial chunks or certification sweeps) at once.
//
// Roles:
//
//	single       (default) one self-contained daemon
//	coordinator  a single node that also leases its chunks to workers
//	             over /chunks/*
//	worker       claims chunks from the coordinator at -join and reports
//	             shard results; its own job endpoints answer 421 pointing
//	             at the coordinator
//
// -cache-bytes bounds the in-memory result tier in bytes (0 = 2 MiB): each
// finished job is charged its result's length plus about 1 KiB for its
// record, and the least recently replayed results leave first. With
// -cache-dir the result cache gains a crash-safe disk tier that keeps every
// result: results survive restarts (a restarted daemon replays them with
// zero engine runs) and nodes sharing the directory share the cache.
//
// Endpoints:
//
//	GET    /scenarios     the registry catalog
//	POST   /jobs          submit a batch: {"jobs":[{"scenario":...,"seed":...},...]}
//	GET    /jobs/{id}     one job's state; ?watch=1 streams NDJSON progress
//	DELETE /jobs/{id}     cancel a queued or running job
//	POST   /certify       submit a certification batch: {"certs":[{"scenario":...,"seed":...},...]}
//	GET    /certify/{id}  one sweep's state; ?watch=1 streams per-candidate NDJSON progress
//	DELETE /certify/{id}  cancel a queued or running sweep
//	GET    /healthz       liveness
//	GET    /statz         cache hit rate, worker utilization, trials/sec
//	GET    /debug/pprof/  runtime profiles (only with -pprof)
//
// Identical jobs — same scenario, parameters, seed, and code version —
// share one computation: concurrent duplicates join the in-flight run, and
// later ones replay the cached result byte-for-byte (deterministic seeding
// makes the replay exact). The daemon exits cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/mardsl/marlib"
	"repro/internal/service"
)

// marFlag collects the repeatable -mar spec-file arguments.
type marFlag []string

func (f *marFlag) String() string     { return strings.Join(*f, ",") }
func (f *marFlag) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fleserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("fleserve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
		workers  = fs.Int("workers", 0, "engine workers per job (0 = all CPUs); results are identical for any value")
		parallel = fs.Int("parallel", 0, "concurrent engine runs (0 = 2); additional jobs queue")
		cache    = fs.Int64("cache-bytes", 0, "in-memory result cache budget in bytes (0 = 2 MiB)")
		profiled = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU/heap profiling of the live daemon)")
		role     = fs.String("role", "", "fleet role: single (default), coordinator, or worker")
		join     = fs.String("join", "", "coordinator URL a worker claims chunks from (required with -role worker)")
		cacheDir = fs.String("cache-dir", "", "directory for the crash-safe disk cache tier (empty = memory only)")
		chunk    = fs.Int("fleet-chunk", 0, "trials per fleet chunk lease (0 = 512)")
		lease    = fs.Duration("lease", 0, "chunk lease TTL before a silent worker's chunk is re-issued (0 = 5s)")
	)
	var marFiles marFlag
	fs.Var(&marFiles, "mar", "MAR spec file to compile and register before serving (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if names, err := marlib.RegisterFiles(marFiles); err != nil {
		return err
	} else if len(names) > 0 {
		fmt.Fprintf(out, "fleserve: registered %d MAR scenarios: %s\n", len(names), strings.Join(names, " "))
	}
	srv, err := service.New(service.Config{
		Addr:       *addr,
		Workers:    *workers,
		Parallel:   *parallel,
		CacheBytes: *cache,
		Profiling:  *profiled,
		Role:       *role,
		Join:       *join,
		CacheDir:   *cacheDir,
		FleetChunk: *chunk,
		LeaseTTL:   *lease,
	})
	if err != nil {
		return err
	}
	ln, err := srv.Listen()
	if err != nil {
		return err
	}
	// The listening line is machine-read by the smoke harness: with -addr
	// :0 it is the only way to learn where the kernel put the daemon.
	printedRole := *role
	if printedRole == "" {
		printedRole = service.RoleSingle
	}
	fmt.Fprintf(out, "fleserve: listening on %s (version %s, role %s)\n", srv.Addr(), srv.Scheduler().Version(), printedRole)
	return srv.Serve(ctx, ln)
}
