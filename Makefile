# Developer entry points. `make check` mirrors what CI runs.
#
# `make lint` runs asvlint, the project's own static analyzer (see
# internal/analysis and DESIGN.md §7): dropped errors, the backend layering
# boundary, and live, reasoned //asvlint:ignore directives. `make vet` runs
# ahead of it in `make check` and covers lock/atomic copies (copylocks).
# `make lint-fix` is the cleanup loop: gofmt the tree, then `make lint`.

# Every package is race-checked by default — new subsystems are covered the
# moment they appear, instead of opting in here.
RACE_PKGS := ./...

# Fuzz targets exercised by fuzz-smoke, as package:Target pairs.
FUZZ_TARGETS := \
	./internal/imgproc:FuzzReadPGM \
	./internal/imgproc:FuzzReadPFM \
	./internal/imgproc:FuzzImagePool \
	./internal/deconv:FuzzTransformEquivalence \
	./internal/schedule:FuzzCostModelInvariants \
	./internal/stereo:FuzzLaneMin \
	./internal/stereo:FuzzPackedStepMatchesScalar \
	./internal/stereo:FuzzRefineMatchesReference \
	./internal/flow:FuzzFlowIterationMatchesReference \
	./internal/serve:FuzzSnapshotDecode \
	./internal/perception:FuzzCalibrationJSON \
	./internal/perception:FuzzCloudDecode

# Minimum total test coverage (percent) enforced by `make cover` and CI.
COVER_THRESHOLD := 80

.PHONY: build test race bench backends-json backends-check eval-json eval-check ladder-json ladder-check serve-smoke cluster-smoke perception-smoke degrade-smoke benchmark-smoke fmt fmt-check vet lint lint-fix perf-gate check fuzz-smoke cover

build:
	go build ./...

# Same invocation as the release verification (`go build ./... && go test
# ./...`): keeping them identical means CI cannot pass on a subset of the
# suite that the verify step then fails on. Slow tests gate themselves on
# testing.Short(); use `go test -short ./...` locally for a quick loop.
test:
	go test ./...

race:
	go test -race $(RACE_PKGS)

# Run every Go benchmark once. Per-kernel timing lives only here: each
# matching and flow kernel has a Benchmark* that reports ns/px (`go test
# -run '^$' -bench 'Kernel|SGMStages' ./ ./internal/stereo`); no step
# passes or fails on how fast the host is.
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate BENCH_backends.json, the committed cost sweep of every
# accelerator model x network x supported policy (analytic, so
# deterministic on any host).
backends-json:
	go run ./cmd/asvbench -exp backends -json BENCH_backends.json

# Regenerate the cost sweep into BENCH_backends.fresh.json and fail unless it
# is byte-identical to the committed BENCH_backends.json: the models are
# analytic, so any drift means a model, the scheduler or a network changed.
# The fresh file is left for CI to upload.
backends-check:
	go run ./cmd/asvbench -exp backends -json BENCH_backends.fresh.json
	cmp BENCH_backends.fresh.json BENCH_backends.json

# Regenerate BENCH_eval.json, the committed accuracy sweep (bad-pixel
# rates + depth RMSE per preset x matcher x PW) from the batch evaluator.
eval-json:
	go run ./cmd/asveval -json BENCH_eval.json

# Regenerate the accuracy sweep into BENCH_eval.fresh.json and fail unless
# it is byte-identical to the committed BENCH_eval.json: the scores are
# deterministic, so any drift means the matching, flow or rectification path
# changed. The fresh file is left for CI to upload.
eval-check:
	go run ./cmd/asveval -json BENCH_eval.fresh.json
	cmp BENCH_eval.fresh.json BENCH_eval.json

# Regenerate quality_ladder.json, the committed per-rung accuracy/cost
# pricing of the operating-point ladder the server degrades along.
ladder-json:
	go run ./cmd/asveval -ladder quality_ladder.json

# Regenerate the ladder pricing into quality_ladder.fresh.json and fail
# unless it is byte-identical to the committed quality_ladder.json: the
# scores are deterministic, so any drift means the degraded serving path
# changed. The fresh file is left for CI to upload.
ladder-check:
	go run ./cmd/asveval -ladder quality_ladder.fresh.json
	cmp quality_ladder.fresh.json quality_ladder.json

# End-to-end smoke of the serving layer: boot asvserve on a random port,
# push ~50 requests through asvload, assert latency was reported, no request
# failed server-side and /metrics shows every accepted frame completed with
# an empty queue, then drain via SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the sharded tier: two asvserve shards sharing a spill
# directory, an asvgate over them, load through the gateway, then a drain
# that must migrate every session and keep its stream serving.
cluster-smoke:
	./scripts/cluster_smoke.sh

# End-to-end smoke of the 3D perception path: render a raw (misaligned)
# pair with asvgen, serve it into a calibrated session, and check the
# disparity/depth/point-cloud responses are well-formed.
perception-smoke:
	./scripts/perception_smoke.sh

# End-to-end smoke of overload degradation: a starved asvserve (1 worker,
# paced key matcher) flooded with best-effort sessions must answer every
# frame by stepping down the quality ladder — zero 429s, some degraded.
degrade-smoke:
	./scripts/degrade_smoke.sh

# The repository benchmark (BENCHMARK.json, benchmark/) is its own module, so
# `go build ./... && go test ./...` at the root never compiles it although it
# imports asv/internal/...; vet it and run its tests (which drive every
# workload once through -smoke) so a change to the internals cannot break it
# unseen.
benchmark-smoke:
	cd benchmark && go vet ./... && go test ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# Project-specific invariants; exits nonzero on any finding.
lint:
	go run ./cmd/asvlint ./...

# Format the tree, then show what asvlint still wants. The lint step's exit
# status is propagated: a dirty tree must fail the target, not just print.
lint-fix:
	gofmt -w .
	go run ./cmd/asvlint ./...

# Compiler-diagnostics gate for the kernels: rebuild internal/stereo (the
# matching kernels), internal/imgproc (the separable-filter core) and
# internal/flow (Farneback's matrix update and solves) with
# escape/inline/bounds-check diagnostics and compare per-function counts
# against each package's perf_contract.json. The fresh parsed reports are
# left for CI to upload. After an intentional kernel change, regenerate a
# contract with `go run ./cmd/asvlint -perf -perf-update` (stereo) or the
# same with `-perf-contract internal/<pkg>/perf_contract.json`.
#
# The last step cross-compiles FMA_PKGS for every GOARCH whose compiler
# fuses x*y + z into one rounding (DESIGN.md §7) and fails on any fused
# multiply-add in their assembly: an explicit float32(...)/float64(...)
# round of each product keeps their bits those of amd64. The build cache
# replays the listing, so an empty one is an error, not a pass.
FMA_ARCHS := arm64 ppc64le s390x riscv64
FMA_PKGS := ./internal/stereo ./internal/flow ./internal/core ./internal/quality

perf-gate:
	go run ./cmd/asvlint -perf -perf-json PERF_stereo.fresh.json
	go run ./cmd/asvlint -perf -perf-contract internal/imgproc/perf_contract.json -perf-json PERF_imgproc.fresh.json
	go run ./cmd/asvlint -perf -perf-contract internal/flow/perf_contract.json -perf-json PERF_flow.fresh.json
	@set -e; for a in $(FMA_ARCHS); do for p in $(FMA_PKGS); do \
		asm=$$(GOARCH=$$a go build -gcflags=-S $$p 2>&1); \
		if ! echo "$$asm" | grep -q 'STEXT'; then \
			echo "perf-gate: no assembly listing for $$p on $$a:"; echo "$$asm"; exit 1; fi; \
		fused=$$(echo "$$asm" | grep -E '[[:space:]]F(N)?M(ADD|SUB)[A-Z]*[[:space:]]' || true); \
		if [ -n "$$fused" ]; then \
			echo "perf-gate: fused multiply-adds in $$p on $$a:"; echo "$$fused"; exit 1; fi; \
		echo "perf-gate: $$p on $$a has no fused multiply-add"; \
	done; done

# Run every native fuzz target briefly (seed corpus + ~10s of new inputs
# each); any crasher fails the build.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; target=$${t#*:}; \
		echo "fuzz $$pkg $$target"; \
		go test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s "$$pkg"; \
	done

# Total coverage across all packages must stay at or above COVER_THRESHOLD.
cover:
	go test -coverprofile=cover.out -coverpkg=./... ./...
	@go tool cover -func=cover.out | tail -1
	@total=$$(go tool cover -func=cover.out | tail -1 | sed 's/[^0-9.]*\([0-9.]*\)%.*/\1/'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_THRESHOLD)" 'BEGIN{print (t+0 >= m+0) ? 1 : 0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below the $(COVER_THRESHOLD)% floor" >&2; exit 1; fi

check: build vet lint perf-gate fmt-check test race bench fuzz-smoke serve-smoke cluster-smoke perception-smoke degrade-smoke ladder-check eval-check backends-check benchmark-smoke cover
