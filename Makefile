# Convenience targets for the reproduction. Everything is stdlib-only
# Go; no external dependencies. Run `make help` for a summary.

GO ?= go
# Sequence number of the BENCH_<n>.json trajectory point `make bench`
# writes (docs/PERFORMANCE.md); bump per PR.
BENCH_N ?= 10
# Total-coverage floor `make cover` enforces (docs/PERFORMANCE.md
# records how it was set; CI's coverage job gates on it).
COVER_MIN ?= 86.5
# Per-target budget of `make fuzz-short` (CI's fuzz-short job).
FUZZTIME ?= 60s

.PHONY: all help build vet lint test test-race test-short cover bench bench-short profile serve smoke cluster-smoke sim-validate conformance fuzz-short experiments experiments-quick examples clean

all: build vet lint test

help:
	@echo "Targets:"
	@echo "  all          build + vet + lint + test"
	@echo "  build        go build ./..."
	@echo "  vet          go vet ./..."
	@echo "  lint         go vet + project static analysis (cmd/xbarlint, docs/STATIC_ANALYSIS.md)"
	@echo "  test         go test ./..."
	@echo "  test-short   go test -short ./..."
	@echo "  test-race    go test -race ./..."
	@echo "  cover        coverage summary; fails below COVER_MIN=$(COVER_MIN)%"
	@echo "  bench        run benchmarks and write BENCH_$(BENCH_N).json (ns/op, B/op, allocs/op;"
	@echo "               set BENCH_N=<n> for the trajectory point, see docs/PERFORMANCE.md)"
	@echo "  bench-short  one-iteration benchmark smoke run, JSON to bench_short.json"
	@echo "  profile      CPU-profile the N=256 lattice fill and print the hot functions"
	@echo "  serve        run the xbard HTTP daemon (API :8480, pprof 127.0.0.1:8481)"
	@echo "  smoke        xbard end-to-end smoke test (scripts/smoke.sh; CI's smoke job)"
	@echo "  cluster-smoke 3-node sharded-cluster smoke test: forwarding, single fleet"
	@echo "               fill, owner-kill failover, owner restart (scripts/cluster-smoke.sh; CI job)"
	@echo "  sim-validate farm-vs-analytic 3-sigma sweep (scripts/simvalidate.sh; CI's sim-validate job)"
	@echo "  conformance  scenario corpus through scenario.Evaluate, bit-identical to the"
	@echo "               legacy entry points; writes conformance-report.json (CI job)"
	@echo "  fuzz-short   native fuzzing, FUZZTIME=$(FUZZTIME) per target (CI's fuzz-short job)"
	@echo "  experiments  regenerate every paper table/figure into results/"
	@echo "  examples     run the example programs"
	@echo "  clean        remove generated files"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet first (stdlib checks), then the
# project-specific checks (docs/STATIC_ANALYSIS.md).
lint: vet
	$(GO) run ./cmd/xbarlint ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Coverage with a floor: the build fails when total coverage drops
# below COVER_MIN (set from the measured total minus two points; see
# docs/PERFORMANCE.md).
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/,"",$$NF); print $$NF}'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t + 0 < min + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, min; exit 1 } \
		printf "coverage %.1f%% meets the %.1f%% floor\n", t, min }'

# Full benchmark run rendered to the machine-readable trajectory file
# BENCH_<n>.json (cmd/benchjson). Text output is kept in
# bench_output.txt for eyeballing.
bench:
	$(GO) test -bench . -benchmem ./... | tee bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -o BENCH_$(BENCH_N).json
	@echo "wrote BENCH_$(BENCH_N).json"

# Smoke run: every benchmark executes exactly once (CI's bench-short
# job); the JSON artifact proves the harness still parses.
bench-short:
	$(GO) test -bench . -benchtime 1x -benchmem -short ./... | tee bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -o bench_short.json
	@echo "wrote bench_short.json"

# CPU-profiles the N=256 Algorithm 1 fill (the hot path every tuning
# PR targets, docs/PERFORMANCE.md) and prints the top hot functions.
profile:
	$(GO) test -run XXX -bench 'BenchmarkParallelFill/alg1/N=256$$' -benchtime 200x -cpuprofile cpu.prof -o xbar.test . > bench_profile.txt || { cat bench_profile.txt; exit 1; }
	@cat bench_profile.txt
	@grep -q '^Benchmark' bench_profile.txt || { echo "make profile: no benchmark matched" >&2; exit 1; }
	$(GO) tool pprof -top -nodecount 10 xbar.test cpu.prof

# Runs the xbard HTTP daemon with the pprof/metrics debug mux on
# loopback (docs/SERVER.md).
serve:
	$(GO) run ./cmd/xbard -addr :8480 -debug-addr 127.0.0.1:8481

# End-to-end daemon smoke test: build, serve, golden-check /v1/blocking
# against results/figure1.csv, scrape /metrics, SIGTERM, clean drain.
smoke:
	./scripts/smoke.sh

# 3-node cluster smoke test: consistent-hash forwarding serves every
# node's request from the key's owner with exactly one fleet-wide
# lattice fill, killing the owner degrades to local compute, the
# /v1/cluster rollup lands in cluster-rollup.json (docs/CLUSTER.md;
# CI's cluster-smoke job uploads it as an artifact), and a restarted
# owner serves its keys again.
cluster-smoke:
	./scripts/cluster-smoke.sh

# Farm-vs-analytic validation: replication farms on representative
# switches gated within 3 sigma of the product-form solution, with
# fixed seeds so a failure is a regression, never a flake
# (docs/SIMULATOR.md).
sim-validate:
	./scripts/simvalidate.sh

# Conformance gate: every testdata/scenarios corpus spec through the
# unified scenario engine, asserted bit-identical to the legacy entry
# points, with the per-scenario comparison written to
# conformance-report.json (docs/SCENARIOS.md; CI's scenario-conformance
# job uploads the report as an artifact).
conformance:
	$(GO) test ./internal/scenario -run TestCorpusConformance -conformance-report "$(CURDIR)/conformance-report.json"
	@echo "wrote conformance-report.json"

# Short native fuzzing pass, FUZZTIME per target, over every Fuzz*
# target in the module: `go test -list` discovers them package by
# package, so a new target runs without an edit here. Crashers land
# under the package's testdata/fuzz directory.
fuzz-short:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1 } \
		/^ok/ { for (i = 0; i < n; i++) print $$2 "@" t[i]; n = 0 } /^FAIL/ { bad = 1 } END { exit bad }') || exit 1; \
	[ -n "$$targets" ] || { echo "fuzz-short: no Fuzz targets found"; exit 1; }; \
	for tg in $$targets; do \
		echo "fuzz-short: $${tg%@*} $${tg#*@}"; \
		$(GO) test $${tg%@*} -run '^$$' -fuzz "^$${tg#*@}$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Regenerates every paper table and figure plus the validation,
# ablation and extension studies into results/.
experiments:
	$(GO) run ./cmd/experiments -run all

experiments-quick:
	$(GO) run ./cmd/experiments -run all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacity
	$(GO) run ./examples/burstiness
	$(GO) run ./examples/optical
	$(GO) run ./examples/operations
	$(GO) run ./examples/sizing

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_short.json bench_profile.txt cpu.prof xbar.test conformance-report.json cluster-rollup.json
