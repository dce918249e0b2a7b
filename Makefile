GO ?= go

# BENCHTIME is the iteration count for tracked benchmarks: multi-iteration
# runs are stable enough for bench-check to be a hard gate.
BENCHTIME ?= 10x
# BENCH_PHY matches the PHY fast-path benchmarks (end-to-end serial and
# parallel, per-stage sub-benchmarks, and the decode stage at 30 and 24 dB).
BENCH_PHY = BenchmarkPHY(EndToEnd|FFT|Demod|Decode)
# The flight-recorder overhead pair runs more iterations than the rest:
# its armed/disabled gate is a median of per-iteration pairs, and 30 pairs
# keep that median stable enough to hold to ±5%.
FLIGHT_BENCHTIME ?= 30x
# The history plane's scrape+evaluate pair gates a much smaller ratio
# (~3% overhead at one tick per run), so its median needs 100 pairs to
# sit still inside the ±5% tolerance.
HISTORY_BENCHTIME ?= 100x
# TRACKED_BENCHES runs every tracked benchmark; bench archives its output
# and bench-check diffs it against the archive.
TRACKED_BENCHES = { \
	$(GO) test -bench='BenchmarkSweepWorkerPool' -benchtime=$(BENCHTIME) -run='^$$' ./internal/sweep; \
	$(GO) test -bench='BenchmarkEngineThroughput' -benchtime=$(BENCHTIME) -run='^$$' ./internal/platform; \
	$(GO) test -bench='$(BENCH_PHY)|BenchmarkSchedulerThroughput' -benchtime=$(BENCHTIME) -run='^$$' .; \
	$(GO) test -bench='BenchmarkFlightRecorder' -benchtime=$(FLIGHT_BENCHTIME) -run='^$$' ./internal/harness; \
	$(GO) test -bench='BenchmarkScrapeEvaluate' -benchtime=$(HISTORY_BENCHTIME) -run='^$$' ./internal/harness; }

.PHONY: ci build build-arm64 no-fma fuzz-kernels test vet race fmt-check unlinked bench-test bench bench-all bench-check trace-demo sweep-check sweep-check-full baselines baselines-full obs-smoke fleet-smoke flight-smoke slo-smoke profile-phy phy-speedup

ci: vet build build-arm64 no-fma fuzz-kernels race bench-test fmt-check unlinked sweep-check bench-check phy-speedup obs-smoke fleet-smoke flight-smoke slo-smoke

build:
	$(GO) build ./...

# build-arm64 cross-compiles the tree for linux/arm64 and darwin/arm64 and
# vets the packages with per-platform files there: the ones that carry
# amd64 assembly, so their non-amd64 stubs cannot rot unnoticed, and
# realtime, whose release clock has a Linux file and a clock_other.go.
build-arm64:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/fft ./internal/turbo ./internal/cpu ./internal/modulation ./internal/phy ./internal/realtime
	GOOS=darwin GOARCH=arm64 $(GO) build ./... && GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/realtime

# no-fma fails when any assembly kernel uses a fused multiply-add: the
# kernels are bit-identical to their scalar code only because every multiply
# and add rounds separately, as the compiler's GOAMD64=v1 code does.
no-fma:
	@out=$$(grep -il 'vfmadd\|vfmsub\|vfnm' internal/*/*.s); \
	if [ -n "$$out" ]; then \
		echo "fused multiply-add in:"; echo "$$out"; exit 1; \
	fi

# FUZZ_KERNELS lists the fuzz targets make ci runs beyond their seed
# corpora, as package:target:executions: the AVX2-vs-scalar differential
# targets of the assembly kernels and the event engine's firing order.
FUZZ_KERNELS = \
	./internal/turbo:FuzzKernelsMatchScalar:5000 \
	./internal/fft:FuzzForwardKernelMatchesScalar:50000 \
	./internal/modulation:FuzzDemapKernelMatchesScalar:50000 \
	./internal/modulation:FuzzQuantizeKernelMatchesScalar:200000 \
	./internal/platform:FuzzFiringOrder:10000

# fuzz-kernels fuzzes every FUZZ_KERNELS target beyond the seed corpora
# plain `go test` runs. Each target runs for a fixed execution count rather
# than a fixed time, so a slow host takes longer instead of failing;
# minimization is capped so a new input cannot stall it.
fuzz-kernels:
	@set -e; for spec in $(FUZZ_KERNELS); do \
		pkg=$${spec%%:*}; rest=$${spec#*:}; target=$${rest%%:*}; n=$${rest#*:}; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $${n}x -fuzzminimizetime 3s $$pkg; \
	done

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-test runs the tests of the BENCHMARK.json runner, a nested module
# the root ./... patterns do not reach.
bench-test:
	$(GO) -C bench test .

# fmt-check fails when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# unlinked enforces the reachability rule: every function the root package
# and internal/* declare is linked into some cmd/*, examples/* or bench
# binary, or is listed in scripts/unlinked.allow with the surviving test
# that needs it as an oracle or fixture. Deterministic, so a hard gate.
unlinked:
	sh scripts/unlinked.sh

# bench tracks the perf-critical hot paths — the sweep worker pool
# (shards/s), the event engine (events/s) and the schedulers on it
# (subframes/s), and the PHY chain end-to-end, per-stage, and parallel
# (µs/subframe, µs/stage) — and archives the parsed results as
# BENCH_sweep.json so later PRs can diff them.
bench:
	$(TRACKED_BENCHES) | $(GO) run ./cmd/benchjson -out BENCH_sweep.json

# bench-all sweeps every benchmark once (no JSON artifact).
bench-all:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-check is the bench-regression gate: a fresh run of the tracked
# benchmarks diffed against the committed BENCH_sweep.json, failing the
# build on drift. Time-like metrics are held to ±35% (multi-iteration runs
# sit well inside that); allocs/op keeps its strict default — the PHY fast
# path is allocation-free, so any steady-state allocation drifts the zero
# baseline, and a simulated run allocates once per subframe, so a second
# allocation per subframe doubles its count; B/op is exempted because the
# single-digit amortized bytes left over from one-time lazy growth jitter
# across runs. Regenerate the baseline with `make bench` after an
# intentional perf change.
bench-check:
	$(TRACKED_BENCHES) | $(GO) run ./cmd/benchjson -check BENCH_sweep.json \
		-tol ns/op=0.35 -tol us/subframe=0.35 -tol us/stage=0.35 \
		-tol shards/s=0.35 -tol subframes/s=0.35 -tol events/s=0.35 -tol B/op=1.0 \
		-tol 'armed/disabled=0.05' -tol 'history/disabled=0.05'

# profile-phy captures a CPU profile of the end-to-end PHY benchmark — the
# workflow behind the fast-path optimizations (constituent fusion, twiddle
# tables, CRC bytewise lookup all came out of this profile).
profile-phy:
	$(GO) test -bench='BenchmarkPHYEndToEnd$$' -benchtime=50x -run='^$$' -benchmem \
		-cpuprofile /tmp/phy.cpu.prof .
	@echo "wrote /tmp/phy.cpu.prof — inspect with: $(GO) tool pprof -top /tmp/phy.cpu.prof"

# phy-speedup reports whether the parallel fast path pays off on this host
# (8 workers vs 1). The ratio is wall-clock, so a miss is a WARN line, not a
# failure; it fails only when the benchmark stops producing the sample.
phy-speedup:
	sh scripts/phy-speedup.sh

# obs-smoke proves the distributed observability plane end-to-end: a
# two-worker push-enabled sweep's merged collector /metrics must be
# byte-identical to a single-process sweep's (modulo wall-clock series),
# and the collector must flush its final snapshot on SIGINT.
obs-smoke:
	sh scripts/obs-smoke.sh

# trace-demo runs a traced 1000-subframe RT-OPEX simulation and renders the
# per-core timeline plus migration-state tallies.
trace-demo:
	$(GO) run ./cmd/rtoptrace -run -subframes 1000

# sweep-check is the regression gate: a quick parallel sweep of every
# deterministic experiment, diffed cell-by-cell against the checked-in
# golden baselines. Any drift fails the build.
sweep-check:
	$(GO) run ./cmd/rtopex -all -quick -parallel -skip-measured \
		-out /tmp/rtopex-sweep-check.jsonl \
		-baseline testdata/baselines/quick.jsonl >/dev/null

# FULL_TOLS are the per-column tolerances for the full-scale gate: the
# full baseline is byte-exact on the platform that generated it, but its
# float-heavy columns (latency percentiles, fitted model weights, BLER
# curves) pass through libm transcendentals whose last-ulp rounding varies
# across platforms, so those columns get a small relative bound (plus an
# absolute floor for near-zero cells) while everything else — counts,
# configurations, labels — must match exactly.
FULL_TOLS = \
	-tol 'rtt2_us=0.02,0.5' -tol 'e[rtt2]_us=0.02,0.5' \
	-tol 'delta_us=0.02,0.5' -tol 'dispatch_us=0.02,0.5' \
	-tol 'gap_p50_us=0.02,0.5' -tol 'time_us=0.02,0.5' -tol 'time_ms=0.02,0.5' \
	-tol 'mean=0.02,0.5' -tol 'p10=0.02,0.5' -tol 'p25=0.02,0.5' \
	-tol 'p50=0.02,0.5' -tol 'p75=0.02,0.5' -tol 'p90=0.02,0.5' \
	-tol 'p99=0.02,0.5' -tol 'p99.99=0.05,1' -tol 'P(>250us)=0.05,0.001' \
	-tol 'local_p50=0.02,0.5' -tol 'migrated_p50=0.02,0.5' -tol 'overhead=0.05,0.1' \
	-tol 'mcs27_proc_p50=0.02,0.5' -tol 'mcs27_proc_p90=0.02,0.5' -tol 'mcs27_proc_p99=0.02,0.5' \
	-tol 'miss_rate=0.05,0.001' -tol 'ccdf=0.05,0.0001' -tol 'threshold_us=0.02,0.5' \
	-tol 'L=1=0.05,0.001' -tol 'L=2=0.05,0.001' -tol 'L=3=0.05,0.001' -tol 'L=4=0.05,0.001' \
	-tol 'snr10=0.05,0.001' -tol 'snr20=0.05,0.001' -tol 'snr30=0.05,0.001' \
	-tol 'w0=0.05,0.01' -tol 'w1=0.05,0.01' -tol 'w2=0.05,0.01' -tol 'w3=0.05,0.01' \
	-tol 'r2=0.02,0.01' -tol 'with_cache=0.02,0.5' -tol 'without_cache=0.02,0.5' \
	-tol '10MHz=0.02,0.5' -tol '5MHz=0.02,0.5' -tol 'savings=0.02,0.01'

# sweep-check-full is the paper-scale regression gate: every deterministic
# experiment at full scale (30000 subframes, 1e6 samples; ~10x quick's
# runtime), diffed against the full golden store under FULL_TOLS. Too slow
# for the default ci target — run it before cutting a release or after any
# change that touches experiment math.
sweep-check-full:
	$(GO) run ./cmd/rtopex -all -parallel -skip-measured \
		-out /tmp/rtopex-sweep-check-full.jsonl \
		-baseline testdata/baselines/full.jsonl $(FULL_TOLS) >/dev/null

# baselines regenerates the golden stores after an intentional behavior
# change. Review the diff before committing.
baselines:
	$(GO) run ./cmd/rtopex -all -quick -parallel -skip-measured \
		-out testdata/baselines/quick.jsonl >/dev/null

# baselines-full regenerates the paper-scale golden store (minutes, not
# seconds). Review the diff before committing.
baselines-full:
	$(GO) run ./cmd/rtopex -all -parallel -skip-measured \
		-out testdata/baselines/full.jsonl >/dev/null

# flight-smoke proves the miss-forensics pipeline end-to-end: a jittery
# RT-OPEX run with the flight recorder armed must spool at least one miss
# dossier, and rtoptrace -dossier must render its post-mortem.
flight-smoke:
	sh scripts/flight-smoke.sh

# slo-smoke proves the history plane + SLO engine end-to-end: a seeded
# jittery livebench run under a deliberately tight SLO must fire a
# burn-rate alert whose dossier cross-links point at spooled flight
# dossiers, on both the livebench /api/alerts surface and an obscollect
# the run pushes to.
slo-smoke:
	sh scripts/slo-smoke.sh

# fleet-smoke proves the distributed sweep fleet end-to-end: a coordinator
# plus two workers (one SIGKILLed mid-sweep, forcing a lease reclaim) must
# produce a store byte-identical, modulo line order, to a serial sweep of
# the same spec, and pass the quick-baseline gate.
fleet-smoke:
	sh scripts/fleet-smoke.sh
