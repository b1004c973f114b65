# Tier-1 gate (referenced from ROADMAP.md): everything `make check` runs
# must stay green in every PR.

GO ?= go

.PHONY: check vet lint build test test-procs1 race bench bench-json bench-module sweep-bench serve-bench cluster-bench cover cover-race fuzz-smoke build-386 fma loc examples

check: vet lint build cover-race bench-module

vet:
	$(GO) vet ./...

# The simulator-invariant analyzer suite (cmd/optimuslint): determinism,
# keycomplete, hotpath, floateq plus the extra vet passes. Exit contract
# matches go vet — any finding fails the gate; deliberate sites carry an
# annotation with a justification (see README "Invariant lints"). The
# whole-module dead-export rule is a test, TestNoDeadExports in
# cmd/optimuslint, run by the test pass of `make check`.
lint:
	$(GO) run ./cmd/optimuslint ./...

build:
	$(GO) build ./...

# The benchmark module (bench/, its own go.mod, which the root ./...
# does not reach): golden result digests at seed 1, the BENCHMARK.json
# parity test and a smoke run of every workload.
bench-module:
	cd bench && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sweep engine's pool defaults to GOMAXPROCS workers. The sweep
# suite at one proc: a default pool has one worker, and an explicit one
# interleaves on a single thread. The fleet suite runs beside it, since
# serving sweeps evaluate fleets on that pool.
test-procs1:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/sweep ./internal/cluster

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Machine-readable throughput snapshot: runs the serve/cluster/sweep
# benchmarks and parses `go test -bench` output into $(BENCH_JSON) via
# cmd/benchjson (name, iterations, and every metric incl. sim-req/s).
# There is no default file name: name the snapshot being committed. The
# end-to-end and per-layer ledger is `bash bench/run.sh` (bench/README.md).
# CI runs it with BENCHTIME=1x as a smoke test so the bench path cannot
# rot; locally the default 1s benchtime gives comparable numbers.
BENCHTIME ?= 1s
bench-json:
	@test -n "$(BENCH_JSON)" || { echo "bench-json: name the snapshot, e.g. make bench-json BENCH_JSON=BENCH_PR<N>.json"; exit 2; }
	@set -e; \
	out=$$($(GO) test -run xxx -bench 'BenchmarkServe|BenchmarkCluster|BenchmarkSweep' -benchmem -benchtime $(BENCHTIME) .); \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson > $(BENCH_JSON); \
	echo "bench-json: wrote $(BENCH_JSON)"

# Plan-sweep throughput, serial engine vs worker pool. The two differ in
# feasibility pruning as well as in parallelism; bench/README.md's
# sweep.prune_speedup measures pruning's share. Its
# sweep.parallel_speedup no longer isolates the pool, since pass 1 runs
# on it too (ROADMAP item 1b redefines it).
sweep-bench:
	$(GO) test -run xxx -bench 'BenchmarkSweep' -benchmem .

# Serving-simulator throughput: simulated requests per wall-clock second.
serve-bench:
	$(GO) test -run xxx -bench 'BenchmarkServe' -benchmem .

# Fleet-simulator throughput per fleet size and routing policy. The
# fleet runs on one goroutine; least-queue also advances every replica
# at each arrival barrier, so round-robin and least-queue bracket the
# router's overhead.
cluster-bench:
	$(GO) test -run xxx -bench 'BenchmarkCluster' -benchmem .

# 32-bit cross-build: pins the PR-3 page-count fix (maxTotalPages and the
# PR-5 per-pool counters must fit 32-bit ints) so it cannot regress
# unbuilt.
build-386:
	GOOS=linux GOARCH=386 $(GO) build ./...

# No fused multiply-add in the serving simulator, the step costs it
# prices and the kernel lists and roofline arithmetic under them, the
# workload draws, the collective models it prices transfers with, the
# fleet simulator and the sweep engine (ROADMAP item 14). The
# Go spec lets a compiler fuse x*y + z into one instruction that rounds
# once instead of twice: amd64 never does, arm64 and ppc64le do, so a
# fused line would give those hosts other bits. Cross-compile the
# packages for both (offline, no emulator) and fail on any fused
# instruction whose source line is in one of them, inlined code
# included: a comm line inlined into serve is listed under comm.go, so
# a line inlined from an unlisted package is not checked.
# `float64(x*y) + z` is the form that cannot fuse. Other packages are
# left to the rest of item 14.
FMA_ARCHS := arm64 ppc64le
FMA_PKGS := internal/serve internal/infer internal/kernels internal/roofline internal/workload internal/comm internal/cluster internal/sweep
fma:
	@set -e; \
	for arch in $(FMA_ARCHS); do \
		out=$$(GOOS=linux GOARCH=$$arch $(GO) build -gcflags=-S $(addprefix ./,$(FMA_PKGS)) 2>&1) || { printf '%s\n' "$$out"; exit 1; }; \
		for pkg in $(FMA_PKGS); do \
			printf '%s\n' "$$out" | grep -q "optimus/$$pkg\..* STEXT" || \
				{ echo "fma: no $$arch listing for $$pkg"; exit 1; }; \
			hits=$$(printf '%s\n' "$$out" | grep -E "/$$pkg/[^)]*\)[[:space:]]+F(N)?M(ADD|SUB)" || true); \
			if [ -n "$$hits" ]; then \
				printf '%s\n' "$$hits"; \
				echo "fma: FAIL — fused multiply-add at a $$pkg line on $$arch; round the product with float64(x*y)"; \
				exit 1; \
			fi; \
			echo "fma: $$arch: no fused multiply-add in $$pkg"; \
		done; \
	done

# Run every example program end to end; a non-zero exit fails the
# target. The examples drive the public API, sweeps included, so `go
# build` alone cannot catch one that a validation change now rejects.
examples:
	@set -e; for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# Non-test Go lines per package of the optimus module (bench/ is its own
# module): the total and the code alone, without blank or comment lines
# (a line inside a /* */ block counts as comment). Refactors report their
# net delta from two runs of this, before and after.
loc:
	@find . \( -path ./bench -o -name testdata \) -prune -o -name '*.go' ! -name '*_test.go' -print | sort | \
	awk '{ dir = $$0; sub(/\/[^\/]*$$/, "", dir); if (!(dir in total)) { dirs[++n] = dir; total[dir] = 0; code[dir] = 0 } \
		while ((getline line < $$0) > 0) { \
			total[dir]++; sum++; t = line; gsub(/^[ \t]+|[ \t]+$$/, "", t); \
			if (block) { if (t ~ /\*\//) block = 0; continue } \
			if (t == "" || t ~ /^\/\//) continue; \
			if (t ~ /^\/\*/) { if (t !~ /\*\//) block = 1; continue } \
			code[dir]++; csum++ } \
		close($$0) } \
	END { printf "%-36s %7s %7s\n", "package", "total", "code"; \
		for (i = 1; i <= n; i++) printf "%-36s %7d %7d\n", dirs[i], total[dirs[i]], code[dirs[i]]; \
		printf "%-36s %7d %7d\n", "all", sum, csum }'

# Short smoke run of every checked-in fuzz harness. `go test` allows one
# -fuzz target per invocation, so iterate; the harnesses double as
# regression suites under plain `go test`, this actually fuzzes them.
FUZZTIME ?= 10s
FUZZ_PKGS := ./internal/workload ./internal/serve ./internal/sweep ./internal/cluster ./cmd/optimus
fuzz-smoke:
	@set -e; \
	for pkg in $(FUZZ_PKGS); do \
		targets=$$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz') || \
			{ echo "fuzz-smoke: no fuzz targets found in $$pkg"; exit 1; }; \
		for f in $$targets; do \
			echo "fuzz-smoke: $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Coverage floors on the workload generators, serving simulator, sweep
# engine, fleet simulator and CLI — the paged KV-cache hot paths and the
# flag surface over them — so tier-1 fails when new code in them arrives
# untested. Floors sit below current coverage (`make cover` prints
# workload 92.0%, serve 97.5%, sweep 94.4%, cluster 91.8%, cmd/optimus
# 85.6%) to leave room for honest refactors, not for untested
# subsystems.
SERVE_COVER_FLOOR := 85
SWEEP_COVER_FLOOR := 80
CLUSTER_COVER_FLOOR := 80
WORKLOAD_COVER_FLOOR := 85
CMD_COVER_FLOOR := 80

# One coverage-floor checker with two entry points: cover-race is the
# tier-1 test pass (`make check`), -race and -cover in one run so the
# heavy simulation suites execute once; cover is the same recipe without
# -race, a faster local read of the same floors.
cover-race: RACE := -race
cover cover-race:
	@set -e; \
	out=$$($(GO) test $(RACE) -cover ./... 2>&1) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out"; \
	floor() { \
		pct=$$(printf '%s\n' "$$out" | sed -n "s|^ok[[:space:]]*$$1[[:space:]].*coverage: \([0-9.]*\)% of statements.*|\1|p"); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		echo "cover: $$1 at $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p+0 >= f+0) }' \
			|| { echo "cover: FAIL — $$1 fell below the $$2% floor"; exit 1; }; \
	}; \
	floor optimus/internal/workload $(WORKLOAD_COVER_FLOOR); \
	floor optimus/internal/serve $(SERVE_COVER_FLOOR); \
	floor optimus/internal/sweep $(SWEEP_COVER_FLOOR); \
	floor optimus/internal/cluster $(CLUSTER_COVER_FLOOR); \
	floor optimus/cmd/optimus $(CMD_COVER_FLOOR)
