#!/bin/sh
# Lint, three rules. (1) Every metric name registered in non-test Go
# source must match hotc_[a-z_]+ — the same rule obs.Registry enforces
# at runtime, caught here before anything runs. (2) benchmark/ is the
# only measurement: nothing may name one of the per-topic bench scripts,
# result files or make targets it replaced. (3) A harness metric cited
# in README/DESIGN must exist in BENCHMARK.json.
set -eu
cd "$(dirname "$0")/.."

# Pull the first string-literal argument of every registry constructor
# call (Counter/Gauge/Histogram and their Vec forms) outside _test.go
# files and the obs package itself (whose sources mention the rule).
bad=$(grep -rn --include='*.go' --exclude='*_test.go' \
        -E '\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("' \
        cmd internal *.go 2>/dev/null |
      grep -v '^internal/obs/' |
      sed -E 's/.*\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("([^"]*)".*/\1 \2/' |
      awk '$2 !~ /^hotc_[a-z_]+$/ {print}' || true)

if [ -n "$bad" ]; then
    echo "lint-metrics: metric names must match hotc_[a-z_]+:" >&2
    echo "$bad" >&2
    exit 1
fi

# The tracing/SLO observability surface is part of the public contract:
# fail if a refactor silently drops one of its metric families.
for fam in hotc_trace_kept_total hotc_trace_sampled_out_total \
           hotc_trace_ring_dropped_total hotc_slo_burn_rate \
           hotc_slo_bad_fraction hotc_slo_breach hotc_slo_budget \
           hotc_build_info hotc_uptime_seconds \
           hotc_coldpath_boots_total hotc_coldpath_phase_ms \
           hotc_coldpath_generic_idle hotc_coldpath_refills_total \
           hotc_coldpath_generic_reaped_total \
           hotc_coldpath_pull_skipped_mb_total \
           hotc_share_leases_total hotc_share_lenders \
           hotc_share_renters hotc_share_boot_phase_ms; do
    if ! grep -rq --include='*.go' --exclude='*_test.go' "\"$fam\"" cmd internal; then
        echo "lint-metrics: required metric family $fam is not registered anywhere" >&2
        exit 1
    fi
done

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
