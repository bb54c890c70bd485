# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check` locally means a green
# pipeline.

GO ?= go

.PHONY: build test race lint fix check bench loc loc-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The chaos fault schedules run for minutes and CI races them in their own
# job; the race gate covers everything else, including the chaos package's
# fast checker tests (same exclusion CI uses).
race:
	$(GO) test -race -skip 'Convergence|CrashRestart|MirrorKill' ./...

lint:
	./scripts/lint.sh

# Apply the mechanical fixes (clockdet clock rewrites, aliasretain clone
# insertion), then show what is left for a human.
fix:
	$(GO) run ./cmd/globelint -fix ./...

check: build test lint loc-gate

# The end-to-end benchmark BENCHMARK.json gates: four workloads, nine
# client-visible metrics each (`make bench ARGS='-trace 1'` for the per-layer
# ladder, ARGS=-quick for a smoke run). Everything it writes goes under
# .bench_build/.
bench:
	bash bench/run.sh $(ARGS)

# Non-blank, non-comment lines of non-test Go per package: the figure PRs
# that claim to simplify quote (CHANGES.md), as one command.
loc:
	@$(GO) list -f '{{.Dir}}' ./... | while read d; do \
		printf '%6d  %s\n' $$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l) $$(realpath --relative-to=. $$d); \
	done | awk '{print; n += $$1} END {printf "%6d  total\n", n}'

# The tree may shrink freely and grow only by raising scripts/loc.baseline
# in the same PR, with a CHANGES.md line saying why.
loc-gate:
	./scripts/loc_gate.sh
