# Convenience targets; everything is plain go tooling underneath.

GO ?= go

.PHONY: build test race vet lint check bench bench-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the analyzer suite module-wide, then the analyzers' own fixture
# self-tests (multi-package fixtures, fact goldens, loader error paths).
lint:
	$(GO) run ./cmd/tcnlint ./...
	$(GO) test ./internal/lint/...

# check is the full local gate: what CI requires before merge.
check: build vet lint test

# bench mirrors CI's baseline step: engine core, packet path, and the
# parallel sweep at workers=1/2/4, written to bench.json (ignored by git),
# with -diff failing on a regression against the committed BENCH_pr10.json
# baseline. It never rewrites a committed baseline.
bench:
	$(GO) run ./cmd/tcnbench -count 3 -o bench.json -diff BENCH_pr10.json

# bench-smoke runs every benchmark once — cheap regression/compile coverage
# for the bench suite itself (CI runs this on every push).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz-smoke mirrors the CI fuzz job: every native fuzz target, bounded.
fuzz-smoke:
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzBucketMapping   -fuzztime 10s ./internal/obs/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzHistogramRecord -fuzztime 10s ./internal/obs/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzDWRRAccounting  -fuzztime 10s ./internal/sched/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzWFQAccounting   -fuzztime 10s ./internal/sched/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzMarkProbability -fuzztime 10s ./internal/core/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzREDDecide       -fuzztime 10s ./internal/aqm/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzEngineReference -fuzztime 10s ./internal/sim/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzSnapshotMemo    -fuzztime 10s ./internal/digest/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzReadTimeline    -fuzztime 10s ./internal/digest/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzRecorderStore   -fuzztime 10s ./internal/digest/
	$(GO) test -tags=invariants -run '^$$' -fuzz FuzzParseLoads      -fuzztime 10s ./cmd/tcnsim/
