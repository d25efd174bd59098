#!/bin/sh
# Full verification tier: what CI runs before merging.
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== gofmt"
UNFORMATTED="$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +)"
if [ -n "$UNFORMATTED" ]; then
	echo "verify: gofmt -l is not clean:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
echo "== one way in, one way out (live: delays only via pay, warm lists only via warmlist.go)"
# The live gateway builds an instance in one boot() whose every modelled
# delay goes through pay(ctx, d), and only the shard list methods in
# warmlist.go write a warm list. Duplicates of either grew back unnoticed
# before, so non-test live code may name time.Sleep only at pay
# (coldpath.go) and in the sleep builtin (daemon.go), once each, and may
# assign or append to an .idle list nowhere else.
LIVE=internal/faas/live
for f in "$LIVE"/*.go; do
	case "$f" in *_test.go) continue ;; esac
	n="$(grep -c 'time\.Sleep' "$f" || true)"
	case "$f" in "$LIVE/coldpath.go" | "$LIVE/daemon.go") max=1 ;; *) max=0 ;; esac
	if [ "$n" -gt "$max" ]; then
		echo "verify: $f names time.Sleep $n times (allowed $max): pay modelled delays through g.sleep" >&2
		exit 1
	fi
	if [ "$f" != "$LIVE/warmlist.go" ] &&
		grep -nE '\.idle(\[[^]]*\])? *(=[^=]|:=)|append\([A-Za-z.]*\.idle\b' "$f" >&2; then
		echo "verify: $f writes a warm list directly: use the shard list methods in warmlist.go" >&2
		exit 1
	fi
done
echo "== go test -race"
go test -race ./...
echo "== one control law, reproducibly (3x: plan table/properties, sim determinism, sim-vs-live parity)"
# Map-order bugs pass most single runs: the jittered four-key replay
# and the eviction tie-break diverge roughly one run in three without
# the fixed iteration order, so these run three times.
go test -race -count=3 -run 'Determinis|Parity|Plan' . ./internal/core/ ./internal/pool/ ./internal/faas/live/
echo "== goroutine-leak check (live gateway)"
HOTC_LEAKCHECK=1 go test -race -count=1 ./internal/faas/live/
echo "== contention bench smoke (1 iteration)"
# The contention suite's benchmarks (BenchmarkGatewayParallel,
# BenchmarkObsHotPath) compile and run one iteration each so bit-rot in
# the bench harness is caught here, not at measurement time.
go test -run '^$' -bench 'GatewayParallel|ObsHotPath' -benchtime=1x ./internal/faas/live/ ./internal/obs/
echo "== data-path bench smoke (1 iteration)"
go test -run '^$' -bench 'GatewayThroughput' -benchtime=1x ./internal/faas/live/
echo "== alloc regression guard (non-race: AllocsPerRun)"
# The race run above skips these: the detector's instrumentation
# perturbs allocation counts. This non-race pass asserts the pooled
# copy and the []byte shim stay at zero heap allocations per request,
# and one warm watchdog-hop round trip stays inside its budget.
go test -run 'ZeroAlloc|AllocBudget' -count=1 ./internal/faas/live/ ./internal/obs/
echo "== benchmark module (vet, unit tests, warm_small smoke with output verification)"
# The harness is its own module, so the root ./... above never reaches
# it. The smoke run exits non-zero when an echo fails verification or
# requests != reused + cold: a hop change that breaks either is caught
# here, before a pipeline run.
go vet -C benchmark ./...
go test -C benchmark ./...
go run -C benchmark . -smoke -only warm_small >/dev/null
echo "== load-generator smoke (2s self-hosted run)"
# hotc-load boots an in-process daemon on a loopback socket and drives
# it open-loop for 2s at a non-saturating rate: the run must complete
# with non-zero goodput and zero 5xx, proving the admission tier and
# the generator itself against a real socket path.
LOADTMP="$(mktemp -d)"
HOTCD_PID=""
SMOKE_PIDS=""
trap 'if [ -n "$HOTCD_PID" ]; then kill "$HOTCD_PID" 2>/dev/null || true; fi; for p in $SMOKE_PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$LOADTMP"' EXIT
go build -o "$LOADTMP/hotc-load" ./cmd/hotc-load
"$LOADTMP/hotc-load" -rate 50 -duration 2s -assert-min-ok 0.9 -assert-max-5xx 0 \
	-out "$LOADTMP/smoke.json"
echo "== prometheus-exposition check (strict parse of a live hotcd /metrics)"
# Boot a real daemon, drive a traced request so histograms, exemplars
# and the hotc_trace_*/hotc_slo_* families are live, then run the
# strict exposition parser (hotc-trace metrics) over the actual scrape
# output. A malformed line — bad escape, non-cumulative bucket,
# misplaced exemplar — fails here, not in a dashboard.
go build -o "$LOADTMP/hotcd" ./cmd/hotcd
go build -o "$LOADTMP/hotc-trace" ./cmd/hotc-trace
"$LOADTMP/hotcd" -addr 127.0.0.1:0 >"$LOADTMP/hotcd.log" 2>&1 &
HOTCD_PID=$!
BASE=""
i=0
while [ $i -lt 50 ]; do
	BASE="$(sed -n 's/^hotcd listening on //p' "$LOADTMP/hotcd.log" | head -n 1)"
	[ -n "$BASE" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$BASE" ]; then
	echo "verify: hotcd did not come up" >&2
	cat "$LOADTMP/hotcd.log" >&2
	exit 1
fi
curl -sf -X POST "$BASE/function/echo" -d 'verify' \
	-H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' >/dev/null
curl -sf -X POST "$BASE/function/qr" -d 'verify' >/dev/null
"$LOADTMP/hotc-trace" metrics "$BASE/metrics"
"$LOADTMP/hotc-trace" spans "$BASE/system/trace" >/dev/null
kill "$HOTCD_PID" 2>/dev/null || true
wait "$HOTCD_PID" 2>/dev/null || true
HOTCD_PID=""
echo "== prefork smoke (generic handoff beats the full cold boot)"
# Boot a daemon with the generic pool armed, deploy a fresh 400ms
# function and time its first request: it must answer X-Hotc-Reused:
# false (it IS a cold start) with X-Hotc-Boot: generic, and complete
# well under the full 400ms — only the app-init share is paid.
"$LOADTMP/hotcd" -addr 127.0.0.1:0 -prefork -preload=false \
	>"$LOADTMP/prefork.log" 2>&1 &
HOTCD_PID=$!
BASE=""
i=0
while [ $i -lt 50 ]; do
	BASE="$(sed -n 's/^hotcd listening on //p' "$LOADTMP/prefork.log" | head -n 1)"
	[ -n "$BASE" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$BASE" ]; then
	echo "verify: prefork hotcd did not come up" >&2
	cat "$LOADTMP/prefork.log" >&2
	exit 1
fi
sleep 0.5 # let the generic pool finish its prefill (120ms boots)
curl -sf -X POST "$BASE/system/functions" \
	-d '{"name":"fresh","handler":"upper","coldStartMs":400}' >/dev/null
T0=$(date +%s%N)
curl -sf -D "$LOADTMP/prefork-headers" -o /dev/null \
	-X POST "$BASE/function/fresh" -d 'smoke'
T1=$(date +%s%N)
FIRST_MS=$(((T1 - T0) / 1000000))
grep -qi '^x-hotc-reused: false' "$LOADTMP/prefork-headers" || {
	echo "verify: first request to a fresh function was not a cold start" >&2
	cat "$LOADTMP/prefork-headers" >&2
	exit 1
}
grep -qi '^x-hotc-boot: generic' "$LOADTMP/prefork-headers" || {
	echo "verify: first request did not specialize a generic watchdog" >&2
	cat "$LOADTMP/prefork-headers" >&2
	exit 1
}
if [ "$FIRST_MS" -ge 300 ]; then
	echo "verify: generic handoff took ${FIRST_MS}ms, want well under the 400ms full cold" >&2
	exit 1
fi
echo "   generic handoff: ${FIRST_MS}ms (full cold is 400ms)"
kill "$HOTCD_PID" 2>/dev/null || true
wait "$HOTCD_PID" 2>/dev/null || true
HOTCD_PID=""
echo "== sharing smoke (second function's first request rents the first's idle instance)"
# Boot a daemon with inter-function sharing armed and a short idle
# grace, deploy two 400ms functions, warm the first, wait past the
# grace, then time the second function's very first request: it must
# answer X-Hotc-Boot: rented and complete well under the 400ms full
# cold — only wipe + app init is paid.
"$LOADTMP/hotcd" -addr 127.0.0.1:0 -share -share-idle-grace 100ms -preload=false \
	>"$LOADTMP/share.log" 2>&1 &
HOTCD_PID=$!
BASE=""
i=0
while [ $i -lt 50 ]; do
	BASE="$(sed -n 's/^hotcd listening on //p' "$LOADTMP/share.log" | head -n 1)"
	[ -n "$BASE" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$BASE" ]; then
	echo "verify: sharing hotcd did not come up" >&2
	cat "$LOADTMP/share.log" >&2
	exit 1
fi
curl -sf -X POST "$BASE/system/functions" \
	-d '{"name":"lender","handler":"upper","coldStartMs":400}' >/dev/null
curl -sf -X POST "$BASE/system/functions" \
	-d '{"name":"renter","handler":"upper","coldStartMs":400}' >/dev/null
curl -sf -X POST "$BASE/function/lender" -d 'warmup' >/dev/null
sleep 0.3 # let the lender's instance age past the 100ms idle grace
T0=$(date +%s%N)
curl -sf -D "$LOADTMP/share-headers" -o /dev/null \
	-X POST "$BASE/function/renter" -d 'smoke'
T1=$(date +%s%N)
RENT_MS=$(((T1 - T0) / 1000000))
grep -qi '^x-hotc-boot: rented' "$LOADTMP/share-headers" || {
	echo "verify: renter's first request did not rent the lender's idle instance" >&2
	cat "$LOADTMP/share-headers" >&2
	exit 1
}
if [ "$RENT_MS" -ge 300 ]; then
	echo "verify: rented boot took ${RENT_MS}ms, want well under the 400ms full cold" >&2
	exit 1
fi
curl -sf "$BASE/system/stats" | grep -q '"leasesGranted": *1' || {
	echo "verify: /system/stats sharing block does not report the lease" >&2
	curl -sf "$BASE/system/stats" >&2 || true
	exit 1
}
echo "   rented boot: ${RENT_MS}ms (full cold is 400ms)"
kill "$HOTCD_PID" 2>/dev/null || true
wait "$HOTCD_PID" 2>/dev/null || true
HOTCD_PID=""
echo "== router smoke (hotc-router + 2 hotcd: routed request round-trips with trace headers)"
# Boot a two-node cluster behind the router and drive one traced
# request through it: the response must come back 200 with the
# caller's trace ID echoed (one trace crosses router -> node ->
# watchdog) and the serving node named in X-Hotc-Node.
go build -o "$LOADTMP/hotc-router" ./cmd/hotc-router
N1_BASE=""
N2_BASE=""
for n in 1 2; do
	"$LOADTMP/hotcd" -addr 127.0.0.1:0 >"$LOADTMP/node$n.log" 2>&1 &
	SMOKE_PIDS="$SMOKE_PIDS $!"
done
for n in 1 2; do
	base=""
	i=0
	while [ $i -lt 50 ]; do
		base="$(sed -n 's/^hotcd listening on //p' "$LOADTMP/node$n.log" | head -n 1)"
		[ -n "$base" ] && break
		i=$((i + 1))
		sleep 0.1
	done
	if [ -z "$base" ]; then
		echo "verify: smoke hotcd $n did not come up" >&2
		cat "$LOADTMP/node$n.log" >&2
		exit 1
	fi
	eval "N${n}_BASE=\$base"
done
"$LOADTMP/hotc-router" -addr 127.0.0.1:0 -nodes "$N1_BASE,$N2_BASE" \
	>"$LOADTMP/router.log" 2>&1 &
SMOKE_PIDS="$SMOKE_PIDS $!"
ROUTER_BASE=""
i=0
while [ $i -lt 50 ]; do
	ROUTER_BASE="$(sed -n 's/^hotc-router listening on //p' "$LOADTMP/router.log" | head -n 1)"
	[ -n "$ROUTER_BASE" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$ROUTER_BASE" ]; then
	echo "verify: hotc-router did not come up" >&2
	cat "$LOADTMP/router.log" >&2
	exit 1
fi
SMOKE_TRACE=4bf92f3577b34da6a3ce929d0e0e4736
curl -sf -D "$LOADTMP/routed-headers" -o "$LOADTMP/routed-body" \
	-X POST "$ROUTER_BASE/function/echo" -d 'routed' \
	-H "traceparent: 00-$SMOKE_TRACE-00f067aa0ba902b7-01"
grep -q '^routed$' "$LOADTMP/routed-body" || {
	echo "verify: routed echo body wrong" >&2
	cat "$LOADTMP/routed-body" >&2
	exit 1
}
grep -qi "^x-hotc-trace-id: $SMOKE_TRACE" "$LOADTMP/routed-headers" || {
	echo "verify: routed response lost the trace ID" >&2
	cat "$LOADTMP/routed-headers" >&2
	exit 1
}
grep -qi '^x-hotc-node: ' "$LOADTMP/routed-headers" || {
	echo "verify: routed response names no serving node" >&2
	cat "$LOADTMP/routed-headers" >&2
	exit 1
}
for p in $SMOKE_PIDS; do
	kill "$p" 2>/dev/null || true
	wait "$p" 2>/dev/null || true
done
SMOKE_PIDS=""
echo "== metric-name lint"
./scripts/lint-metrics.sh
echo "verify: OK"
