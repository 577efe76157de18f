# Repository tasks. Everything here is also what CI runs; keeping the
# recipes in one place means a green `make check` locally predicts a green
# pipeline.

GO ?= go

.PHONY: build test race check docs-check inline-check perfbench-check bench bench-tagged bench-gate service-smoke certify-smoke certify-golden fleet-smoke dsl-smoke profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the race detector over the concurrent layers, including
# internal/conc, which runs one goroutine per processor, and the lane
# runners every engine worker keeps on its arena: the A-LEADuni and
# PhaseAsyncLead lane strategies (internal/protocols/alead,
# internal/protocols/phaselead, internal/committee) and the attack plans a
# lane worker reuses across blocks (internal/attacks). The equilibrium
# package runs with -short: its full-catalog and phase-lead tightness sweeps
# take minutes under the detector and exercise no sweep concurrency the
# short tests miss; the nightly full-tree race still runs them.
race:
	$(GO) test -race ./internal/engine/ ./internal/ring/ ./internal/cointoss/ ./internal/scenario/ ./internal/service/ ./internal/popproto/ ./internal/conc/ ./internal/protocols/alead/ ./internal/protocols/phaselead/ ./internal/attacks/ ./internal/committee/
	$(GO) test -race -short ./internal/equilibrium/

# docs-check is the documentation floor: vet must be clean, every package
# (internal/, cmd/, examples/ and the root) must carry a package doc
# comment, every exported identifier of the public root API must carry a
# doc comment, and new exported root functions must take at most three
# positional parameters (spec/options structs beyond that;
# //doccheck:allow-positional waivers exempt). CI runs this on every push.
docs-check:
	$(GO) vet ./...
	$(GO) run ./internal/tools/doccheck -pkgdoc . -apicheck . .

# inline-check guards the per-message send path. Context.Send must inline
# into the protocols' strategies, so its one call, Network.send, is the only
# frame a send pays; the pending-ring push must inline into that call. A
# single added branch in either would cost every message a call frame
# without failing any test. Lane messages carry most batch and certificate
# trials, so Send must inline at every ctx.Send line of the lane sources, not
# just somewhere in their packages: the A-LEADuni lane strategies
# (alead/lanes.go), and the slot send in internal/ring (ring/lanes.go), which
# every PhaseAsyncLead and coalition lane message passes through. CI runs
# this in the verify job.
LANE_SRCS := internal/protocols/alead/lanes.go internal/ring/lanes.go
inline-check:
	@$(GO) build -gcflags=-m ./internal/protocols/alead ./internal/protocols/phaselead 2>&1 | \
		grep -q 'inlining call to sim.(\*Context).Send' || \
		{ echo "inline-check: sim.(*Context).Send is no longer inlined" >&2; exit 1; }
	@for src in $(LANE_SRCS); do \
		want=$$(grep -n '^[^/]*ctx\.Send(' $$src | cut -d: -f1 | sort -u | tr '\n' ' '); \
		got=$$($(GO) build -gcflags=-m ./$$(dirname $$src) 2>&1 | \
			sed -n 's/.*lanes\.go:\([0-9]*\):[0-9]*: inlining call to sim\.(\*Context)\.Send$$/\1/p' | sort -u | tr '\n' ' '); \
		[ -n "$$want" ] && [ "$$want" = "$$got" ] || \
			{ echo "inline-check: $$src sends on lines $$want; Context.Send inlines on lines $$got" >&2; exit 1; }; \
	done
	@$(GO) build -gcflags=-m ./internal/sim 2>&1 | \
		grep -q 'can inline (\*Network).pushPending' || \
		{ echo "inline-check: sim.(*Network).pushPending is no longer inlinable" >&2; exit 1; }
	@echo "inline-check: Context.Send (at every lane send) and the pending-ring push inline"

# perfbench-check vets and tests the repo benchmark (BENCHMARK.json).
# perfbench/ is its own module, so `go build ./...` never compiles it: a
# service API change that broke the benchmark would otherwise pass every
# other check and fail only when the benchmark runs. CI runs this in the verify
# job.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

check: build docs-check inline-check perfbench-check test race

# The smoke targets below, and profile, are phases of one end-to-end
# harness, internal/tools/smoke: each builds the real binaries and runs one
# phase against them. `go test ./internal/tools/smoke/` runs all five.

# service-smoke is the daemon's end-to-end acceptance run: build the real
# fleserve binary, boot it on an ephemeral port, drive a 100-job concurrent
# batch (20 distinct scenarios × 5 copies), and verify completion, a cache
# hit-rate ≥ 0.8, byte-identical replays, agreement with direct in-process
# scenario runs, and that every fresh job ran through the node's chunk
# queue. CI runs this on every push.
service-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/smoke -phase service -bin bin/fleserve

# certify-smoke is the certification layer's end-to-end acceptance run:
# boot the real fleserve binary, drive a 10-scenario POST /certify batch,
# and verify streamed per-candidate progress, decisive verdicts, and
# byte-identical certificate cache replays. CI runs this on every push.
certify-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/smoke -phase certify -bin bin/fleserve

# fleet-smoke is the multi-node acceptance run: boot a real coordinator
# plus two real workers sharing one disk cache directory, kill a worker
# while it holds a chunk lease, and verify that the lease is re-issued,
# byte identity with a direct single-node run, a clean fleload mixed batch,
# and a coordinator restart that replays everything from disk with zero
# engine runs. CI runs this on every push.
fleet-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) build -o bin/fleload ./cmd/fleload
	$(GO) run ./internal/tools/smoke -phase fleet -bin bin/fleserve -load bin/fleload

# dsl-smoke is the MAR spec pipeline's end-to-end acceptance run: generate
# a protocol and an adversary spec from a fixed seed, boot the real
# fleserve binary with them on its -mar flag, and verify the daemon serves
# the generated scenarios byte-identically to direct in-process runs and
# certifies the generated adversary. CI runs this on every push.
dsl-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/smoke -phase dsl -bin bin/fleserve

# certify-golden regenerates the committed full-catalog certification
# table. The sweep is deterministic (fixed seed, worker-independent
# stopping points), so the nightly pipeline diffs a fresh run against the
# committed file byte-for-byte.
certify-golden:
	$(GO) run ./cmd/flecert -seed 20180516 -format markdown > CERTIFICATES.md

# bench records the benchmark suite to BENCH_<date>.json/.txt (see
# bench.sh); bench-tagged keeps several recordings from one day apart, e.g.
# `make bench-tagged TAG=arena`.
bench:
	./bench.sh

bench-tagged:
	BENCH_TAG=$(TAG) ./bench.sh

# bench-gate guards against performance regressions: it re-times the gate
# benchmarks (E1, E9, E11, Committee10k) and fails if their ns/op geomean
# regressed more than 15% against the committed BENCH baseline
# (BENCH_BASELINE overrides
# the default, the newest committed BENCH_*.txt). CI runs it on every push.
bench-gate:
	$(GO) run ./internal/tools/benchgate -baseline "$(BENCH_BASELINE)"

# profile captures a CPU profile of the live service daemon under an
# E5-shaped load: build fleserve, boot it with -pprof, saturate the engine
# with honest A-LEADuni batches at n=64, and pull /debug/pprof/profile into
# bench/e5.cpu.pprof (inspect with `go tool pprof bench/e5.cpu.pprof`).
profile:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/smoke -phase profile -bin bin/fleserve -out bench/e5.cpu.pprof
