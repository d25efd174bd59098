GO ?= go

.PHONY: build test verify bench benchmark lint-metrics

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full verification tier: build, vet, race-enabled tests (the design rules
# in internal/archtest among them), smokes, doc lint.
verify:
	./scripts/verify.sh

lint-metrics:
	./scripts/lint-metrics.sh

bench:
	$(GO) test -bench=. -benchmem ./internal/bench/

# The one measurement harness (its own module): every workload in
# BENCHMARK.json, report on stdout. Compare two reports with
# `go run -C benchmark . -compare old.json new.json`.
benchmark:
	bash benchmark/run.sh
