#!/bin/sh
# Lint the docs, two rules. (1) benchmark/ is the only measurement:
# nothing may name one of the per-topic bench scripts, result files or
# make targets it replaced. (2) A harness metric cited in README/DESIGN
# must exist in BENCHMARK.json. (The rules over Go source, metric names
# and the required families among them, are rows of internal/archtest.)
set -eu
cd "$(dirname "$0")/.."

# The per-topic bench scripts, their hand-shaped result files and their
# make targets were deleted in favour of benchmark/; a mention of one is
# either a stale claim or the estate growing back. (This file holds the
# patterns, so it is the one file not searched.)
stale=$(grep -rnE --exclude=lint-metrics.sh \
        'BENCH_[a-z]+\.json|bench-[a-z]+\.sh|make bench-' \
        README.md DESIGN.md EXPERIMENTS.md Makefile scripts cmd internal || true)
if [ -n "$stale" ]; then
    echo "lint-metrics: benchmark/ is the only bench estate (make benchmark); remove:" >&2
    echo "$stale" >&2
    exit 1
fi

# A back-ticked `layer.snake_case` token in README/DESIGN whose layer is
# one of BENCHMARK.json's per-layer prefixes is a metric citation and
# must be a "name" there. The underscore after the dot keeps Go
# identifiers (live.PoolConfig, core.tick) out; a /system/stats key that
# shares a prefix is written with its JSON quotes.
names=$(sed -n 's/.*"name": *"\([a-z]*\.[a-z0-9_]*\)".*/\1/p' BENCHMARK.json)
layers=$(echo "$names" | sed 's/\..*//' | sort -u | paste -sd'|' -)
unknown=$(grep -noE '`('"$layers"')\.[a-z0-9]+_[a-z0-9_]+`' README.md DESIGN.md |
          tr -d '`' |
          while IFS=: read -r file line token; do
              echo "$names" | grep -qxF "$token" || echo "$file:$line: $token"
          done)
if [ -n "$unknown" ]; then
    echo "lint-metrics: cited metrics that BENCHMARK.json does not declare:" >&2
    echo "$unknown" >&2
    exit 1
fi
echo "lint-metrics: OK"
