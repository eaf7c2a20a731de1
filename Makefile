# Convenience targets for the netcache-go repository. Stdlib-only; any
# recent Go toolchain (>= 1.22) works.

GO ?= go

.PHONY: all test race bench bench-ab chaos failover flake experiments examples fuzz profile vet lint loc knobs callers clean

all: test

# The default test target vets and lints first, then includes the race
# detector: the data plane is concurrent end to end, so a non-race run alone
# proves little. Performance is gated separately by the end-to-end benchmark
# (bench/, BENCHMARK.json): `make bench-ab` runs it interleaved against a base
# ref and judges every workload row; the exact allocation floors of the
# packet path are tier-1 tests (allocs_test.go). `make flake` counts how often
# one test fails over N runs of the same test binary. `make loc`, `make knobs`
# and `make callers` print the size, knob and no-caller figures that
# simplification changes quote.
#
# bench/ is its own module (the end-to-end benchmark, see BENCHMARK.json), so
# `go test ./...` here never compiles it; it is vetted and tested last, or
# an API slip would only show when the benchmark driver fails.
test: vet lint race
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The invariant-checked chaos suite (internal/chaos) under the race
# detector. Rerun a failing seed with:
#   go test -race ./internal/chaos -run TestChaos -chaos.seed=<seed>
chaos:
	$(GO) test -race -v -timeout 10m -run 'TestChaos' ./internal/chaos

# Just the replicated-tier failover scenarios: permanent primary crash,
# controller-driven failover, rejoin + anti-entropy resync, failback.
failover:
	$(GO) test -race -v -timeout 10m -run 'TestChaosFailover' ./internal/chaos

# Count a test's flakes: build the package's test binary once, run it N
# times from the package directory, print for each failed run its innermost
# `--- FAIL:` line (the deepest subtest, so `TestChaos/seed=…` keeps the
# seed) and its first failure line, then `failed k/N` (exit status 1 if
# k > 0):
#   make flake PKG=./internal/chaos RUN=TestChaosFailover N=20
# GOFLAGS=-race builds the binary under the race detector.
PKG ?= .
RUN ?= .
N ?= 20
FLAKE = $(CURDIR)/.bench_build/flake

flake:
	@mkdir -p $(FLAKE) && $(GO) test -c -o $(FLAKE)/pkg.test $(PKG)
	@fails=0; for i in $$(seq 1 $(N)); do \
		if ! (cd $(PKG) && $(FLAKE)/pkg.test -test.run '$(RUN)' > $(FLAKE)/run.log 2>&1); then \
			fails=$$((fails + 1)); \
			sub=$$(awk '/--- FAIL:/ { n = match($$0, /[^ \t]/); if (n > d) { d = n; l = $$0 } } \
				END { sub(/^[ \t]+/, "", l); print l }' $(FLAKE)/run.log); \
			first=$$(grep -m1 -E '\.go:[0-9]+: |^panic:|DATA RACE' $(FLAKE)/run.log || grep -m1 FAIL $(FLAKE)/run.log); \
			echo "run $$i: $${sub:+$$sub: }$$(echo "$$first" | sed 's/^[[:space:]]*//')"; \
		fi; \
	done; echo "failed $$fails/$(N)"; [ $$fails -eq 0 ]

bench:
	$(GO) test -bench=. -benchmem ./...

# Interleaved before/after of the end-to-end benchmark (BENCHMARK.json):
#   make bench-ab BASE=<ref> WORKLOADS="udp.zipf99_win32 udp.zipf99_open20k" K=10
# This host drifts ±10 % over tens of minutes, so two sets of runs taken one
# after the other prove nothing. BASE is unpacked (git archive: nothing is
# left registered in .git if the run is killed) under .bench_build/ab/, each
# side builds its own bench/ through its own run.sh, and for seeds 1..K the
# two sides run back to back, the first to run alternating; then bench's own
# `compare` judges base (A) against the working tree (B) row by row.
BASE ?= HEAD
WORKLOADS ?= sim.zipf99_read sim.uniform_read sim.zipf99_write20_repl udp.zipf99_win32 udp.zipf99_open20k
K ?= 10
AB = .bench_build/ab

bench-ab:
	rm -rf $(AB) && mkdir -p $(AB)/base
	git archive $(BASE) | tar -x -C $(AB)/base
	@for w in $(WORKLOADS); do for s in $$(seq 1 $(K)); do \
		sides="base head"; [ $$((s % 2)) -eq 0 ] && sides="head base"; \
		for side in $$sides; do \
			root=.; [ $$side = base ] && root=$(AB)/base; \
			echo "== $$w seed $$s $$side"; \
			bash $$root/bench/run.sh --workload $$w --seed $$s --seconds 10 --trace 0 \
				-out $(CURDIR)/$(AB)/$$side.jsonl | tail -1; \
		done; \
	done; done
	@bash bench/run.sh compare $(AB)/base.jsonl $(AB)/head.jsonl > $(AB)/verdict.txt; st=$$?; \
		grep -v ' missing$$' $(AB)/verdict.txt; exit $$st

# Regenerate every table/figure of the paper's evaluation (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/netcache-bench

# Profile the packet-level rack under the balance experiment's zipf-0.99 load
# (see EXPERIMENTS.md, "Profiling the packet path", for reading the result).
profile:
	$(GO) run ./cmd/netcache-bench -exp balance -quick \
		-cpuprofile cpu.pprof -memprofile mem.pprof -mutexprofile mutex.pprof
	@echo "wrote cpu.pprof mem.pprof mutex.pprof — inspect with: go tool pprof -top cpu.pprof"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/skewbalance
	$(GO) run ./examples/dynamic
	$(GO) run ./examples/multirack
	$(GO) run ./examples/webcache

# The wire decoder, then the differential fuzzer that holds the table
# interpreter byte- and counter-identical to the compiled cached-Get path.
fuzz:
	$(GO) test -fuzz FuzzDecode$$ -fuzztime 30s ./internal/netproto
	$(GO) test -run '^$$' -fuzz FuzzFastPathDifferential$$ -fuzztime 30s ./internal/switchcore

# gofmt -l exits 0 whatever it lists, so an unformatted file fails the
# target only through the emptiness test.
vet:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	$(GO) vet ./...

# Static analysis beyond go vet. The repo is stdlib-only, so the linters are
# optional tooling: staticcheck when installed, else golangci-lint (config in
# .golangci.yml), else a no-op with a note — go vet already ran via `vet`.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: staticcheck/golangci-lint not installed; go vet only"; \
	fi

# Non-test Go lines per package (bench/ excluded) and in total, then the
# line counts of DESIGN.md and EXPERIMENTS.md: the figures CHANGES.md quotes
# for simplification PRs.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); loc[d] += $$1; total += $$1 } \
			END { for (d in loc) printf "%7d  %s\n", loc[d], d; printf "%7d  total\n", total }' | sort -k2
	@wc -l DESIGN.md EXPERIMENTS.md | awk '$$2 != "total" { printf "%7d  %s\n", $$1, $$2 }'

# Exported fields of every exported *Config and *Policy struct in non-test Go
# (bench/ excluded), then their total: the knob count CHANGES.md quotes for
# simplification PRs. `A, B int` counts as two fields, an embedded exported
# type as one.
knobs:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort | xargs awk ' \
		/^type (Config|Policy|[A-Z][A-Za-z0-9_]*(Config|Policy)) struct ?\{/ { \
			name = FILENAME; sub("/[^/]*$$", "", name); name = name " " $$2; n = 0; inside = !/\{\}/; \
			if (!inside) printf "%5d  %s\n", 0, name; next } \
		inside && /^\}/ { printf "%5d  %s\n", n, name; total += n; inside = 0; next } \
		inside && /^\t[A-Z]/ { k = 1; while ($$k ~ /,$$/) k++; n += k } \
		END { printf "%5d  total\n", total }'

# Exported functions and methods declared under internal/ that no non-test
# Go file names (the root facade, cmd/, examples/, bench/ and internal/ all
# count as callers; words in comments and string literals do not): the
# candidates of a no-caller audit. The match is by name alone, so a method
# that shares its name with any identifier in use is never listed.
callers:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { str = ""; blk = 0 } \
		{ code = ""; n = length($$0); \
			for (i = 1; i <= n; i++) { \
				c = substr($$0, i, 1); c2 = substr($$0, i, 2); \
				if (blk) { if (c2 == "*/") { blk = 0; i++ } continue } \
				if (str != "") { if (c == "\\" && str != "`") i++; else if (c == str) str = ""; continue } \
				if (c2 == "//") break; \
				if (c2 == "/*") { blk = 1; i++; continue } \
				if (c == "\"" || c == "`" || c == "\047") str = c; \
				code = code c } \
			skip = ""; \
			if (FILENAME ~ /^\.\/internal\// && match(code, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/)) { \
				decl = substr(code, 1, RLENGTH); skip = decl; sub(/.*[ )]/, "", skip); recv = ""; \
				if (decl ~ /^func \(/) { recv = decl; sub(/^func \([^ )]* \**/, "", recv); sub(/^func \(\**/, "", recv); \
					sub(/[[)].*/, "", recv); recv = recv "." } \
				dir = FILENAME; sub("/[^/]*$$", "", dir); sub("^\\./", "", dir); decls[dir "  " recv skip] = skip } \
			gsub(/[^A-Za-z0-9_]+/, " ", code); k = split(code, tok, " "); \
			for (j = 1; j <= k; j++) if (tok[j] != skip) refs[tok[j]]++ } \
		END { for (d in decls) if (!(decls[d] in refs)) print d }' | sort

clean:
	$(GO) clean -testcache
