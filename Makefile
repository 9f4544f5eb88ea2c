GO ?= go

.PHONY: all build test vet fmt-check staticcheck race bench-smoke bench-guard bench-baseline perfbench-smoke profile smoke-ringmeshd fuzz-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any Go file is not gofmt-formatted (gofmt -l lists them).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Skipped with a note when the tool isn't installed, so `make ci`
# works on a bare toolchain; CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A short benchmark pass that exercises the engine fast paths without
# running the full figure sweeps.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkEngineStep|BenchmarkSimRing24|BenchmarkSimMesh16' -benchtime=100x .

# Fail if the engine hot loop regressed >15% vs ci/bench-baseline.txt.
# Guards both the serial dispatch path and the sharded parallel tick
# (Workers=2 on the 8x8 mesh, one shard per row); every guarded
# benchmark is measured even after one regresses, so the report names
# each offender and its slowdown.
bench-guard:
	$(GO) run ./cmd/benchguard -bench BenchmarkEngineStepUniform,BenchmarkEngineStepParallel2,BenchmarkAnalyticEstimate

# Re-record the hot-loop baselines (after an intentional change).
bench-baseline:
	$(GO) run ./cmd/benchguard -update -bench BenchmarkEngineStepUniform,BenchmarkEngineStepParallel1,BenchmarkEngineStepParallel2,BenchmarkAnalyticEstimate

# The repository benchmark (perfbench/, its own module) builds against
# this module's packages; its smoke tests run every workload at tiny
# scale and check its answers, so a root-module change that breaks the
# benchmark's build or checks fails here.
perfbench-smoke:
	$(GO) -C perfbench test ./...

# CPU- and heap-profile the engine hot loop; inspect the output with
# `go tool pprof cpu.prof`. For live profiles of the serving daemon,
# boot it with -pprof and fetch /debug/pprof/profile instead.
profile:
	$(GO) test -run=NONE -bench=BenchmarkEngineStepUniform -benchtime=20000x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles written: cpu.prof mem.prof (go tool pprof <file>)"

# Boot the serving daemon, submit the same run twice, and assert the
# second is answered from the result cache (end-to-end, over HTTP).
smoke-ringmeshd:
	bash ci/smoke_ringmeshd.sh

# A short native-fuzz pass over the hostile-input parsers: the fault
# plan DSL and the job-journal record decoder must never panic. The
# seed corpora also run as plain tests in `make test`; this target
# additionally mutates for a few seconds per target.
fuzz-smoke:
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5s

# The gate run by .github/workflows/ci.yml.
ci: fmt-check vet staticcheck build race bench-smoke bench-guard perfbench-smoke fuzz-smoke smoke-ringmeshd
