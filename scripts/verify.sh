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
echo "== one way in, one way out (live: delays only via pay, warm lists only via warmlist.go, requests only via conclude, counts only in the registry, background only via the control cycle)"
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
# The request's half: every /function/ request leaves handle through
# conclude (live.go), which alone writes a gateway refusal, counts the
# outcome and latency and finishes the span, and every event is booked
# once, in the metrics registry, which the JSON views read back. So
# non-test live code calls finishRequest and observe once each, names
# http.Error twice in live.go (conclude and the unknown-function 404)
# and otherwise only in watchdog.go (the function's replies) and
# daemon.go (the management API), and keeps no atomic counter beside a
# metric that counts the same thing.
for fn in finishRequest observe; do
	n="$(ls "$LIVE"/*.go | grep -v '_test\.go$' | xargs grep -h "\.$fn(" | grep -vc '^[[:space:]]*//' || true)"
	if [ "$n" -ne 1 ]; then
		echo "verify: $fn is called at $n sites in $LIVE (want 1): return an ending and let conclude account for it" >&2
		exit 1
	fi
done
for f in "$LIVE"/*.go; do
	case "$f" in *_test.go | "$LIVE/watchdog.go" | "$LIVE/daemon.go") continue ;; esac
	n="$(grep -c 'http\.Error(' "$f" || true)"
	case "$f" in "$LIVE/live.go") max=2 ;; *) max=0 ;; esac
	if [ "$n" -gt "$max" ]; then
		echo "verify: $f names http.Error $n times (allowed $max): a stage returns an ending with a refusal, conclude writes it" >&2
		exit 1
	fi
	case "$f" in
	"$LIVE/sharing.go" | "$LIVE/coldpath.go") shadow='atomic\.(Uint64|Int64)' ;;
	*) shadow='(memReclaimed|sampledOut)[[:space:]]+atomic\.' ;;
	esac
	if grep -nE "$shadow" "$f" >&2; then
		echo "verify: $f keeps an atomic counter beside its metric: count once in the registry (g.obs) and read it back with Counter.Value()/Gauge.Value()" >&2
		exit 1
	fi
done
# The background's half: one goroutine, the control cycle (controller.go),
# runs every periodic decision as a stage — controlTick walks the
# registry in name order, janitorOnce expires, caps and budgets — and
# every walk over the functions reads that registry. N + 1 free-running
# tickers and a fresh map iteration per walk made decisions depend on
# map order before, so non-test live code names time.NewTicker only
# inside cycle, ranges over g.shards only where Register rebuilds the
# ordered slice, and starts a goroutine only for the cycle, a prewarm
# boot, stopAll's teardowns, the hop's body writer and the accept loop.
for f in "$LIVE"/*.go; do
	case "$f" in *_test.go) continue ;; esac
	bad="$(grep -nE '^[[:space:]]*go ' "$f" |
		grep -vE 'go (g\.cycle\(|g\.prewarmOne\(|g\.server\.Serve\(|func\(i \*instance\) \{|func\(\) \{ c\.wdone <- c\.sendBody\()' || true)"
	if [ -n "$bad" ]; then
		echo "$f:$bad" >&2
		echo "verify: $f starts a goroutine of its own: periodic work is a stage of the control cycle, a boot nobody waits on goes through prewarmOne under g.wg, teardowns through stopAll" >&2
		exit 1
	fi
	bad="$(awk '/^func /{fn=$0} /^[[:space:]]*\/\//{next} /time\.NewTicker/ && fn !~ /^func \(g \*Gateway\) cycle\(/{print FILENAME":"FNR": "$0}' "$f")"
	if [ -n "$bad" ]; then
		echo "$bad" >&2
		echo "verify: time.NewTicker outside the control cycle: make the periodic work a stage of cycle (controlTick or janitorOnce), not a loop of its own" >&2
		exit 1
	fi
	n="$(grep -c 'range g\.shards' "$f" || true)"
	case "$f" in "$LIVE/live.go") max=1 ;; *) max=0 ;; esac
	if [ "$n" -gt "$max" ]; then
		echo "verify: $f ranges over g.shards $n times (allowed $max): iterate g.snapshotShards(), the registry in name order" >&2
		exit 1
	fi
done
echo "== wired once (sim: engine, host monitor, gateway and pre-pull only in internal/stack)"
# The simulator's half: hotc.NewSimulation, bench.NewEnv and every
# cluster node are one stack.New. Three hand-wired copies drifted before
# (cluster nodes never armed the memory threshold), so outside tests and
# the harness (which times the constructors themselves) each of these is
# named in the builder and nowhere else.
for pat in 'container\.NewEngine(' '\bhost\.New(' 'faas\.NewGateway(' '\.Refs()'; do
	files="$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build -e "$pat" . || true)"
	if [ "$files" != "./internal/stack/stack.go" ]; then
		echo "verify: $pat is named outside internal/stack/stack.go:" $files >&2
		echo "verify: build the deployment with stack.New(stack.Options{...}) and use its Deploy/Close" >&2
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
echo "== one iteration of BenchmarkGatewayParallel|ObsHotPath|GatewayThroughput"
# Not a measurement (benchmark/ is): the testing.B benches compile and
# run once each, so bit-rot in them is caught here.
go test -run '^$' -bench 'GatewayParallel|ObsHotPath|GatewayThroughput' -benchtime=1x ./internal/faas/live/ ./internal/obs/
echo "== alloc regression guard (non-race: AllocsPerRun)"
# The race run above skips these: the detector's instrumentation
# perturbs allocation counts. This non-race pass asserts the pooled
# copy and the []byte shim stay at zero heap allocations per request,
# one warm watchdog-hop round trip stays inside its budget, and a warm
# simulator replay stays inside its allocations per simulated request.
go test -run 'ZeroAlloc|AllocBudget' -count=1 . ./internal/faas/live/ ./internal/obs/
echo "== benchmark module (vet, unit tests, warm_small smoke with output verification)"
# The harness is its own module, so the root ./... above never reaches
# it. The smoke run exits non-zero when an echo fails verification or
# requests != reused + cold: a hop change that breaks either is caught
# here, before a pipeline run.
go vet -C benchmark ./...
go test -C benchmark ./...
go run -C benchmark . -smoke -only warm_small >/dev/null
WORK="$(mktemp -d)"
PIDS=""
# start_daemon <log> <binary> <args...>: boot a daemon in the background
# and wait for its "<name> listening on <url>" line. Leaves the URL in
# BASE and the pid in PIDS, or fails the run with the log.
start_daemon() {
	log="$1"
	shift
	"$@" >"$log" 2>&1 &
	PIDS="$PIDS $!"
	i=0
	while [ $i -lt 50 ]; do
		BASE="$(sed -n 's/^[a-z-]* listening on //p' "$log" | head -n 1)"
		[ -n "$BASE" ] && return 0
		i=$((i + 1))
		sleep 0.1
	done
	echo "verify: $1 did not come up" >&2
	cat "$log" >&2
	exit 1
}
stop_daemons() {
	for p in $PIDS; do
		kill "$p" 2>/dev/null || true
		wait "$p" 2>/dev/null || true
	done
	PIDS=""
}
trap 'stop_daemons; rm -rf "$WORK"' EXIT
for c in hotcd hotc-load hotc-trace hotc-router; do
	go build -o "$WORK/$c" "./cmd/$c"
done
echo "== load-generator smoke (2s open loop against a real hotcd)"
# A non-saturating rate through the admission tier at hotcd's defaults:
# the run must complete with non-zero goodput and zero 5xx, proving the
# generator and the daemon against a real socket path.
start_daemon "$WORK/hotcd.log" "$WORK/hotcd" -addr 127.0.0.1:0
"$WORK/hotc-load" -target "$BASE" -rate 50 -duration 2s -assert-min-ok 0.9 -assert-max-5xx 0 \
	-out "$WORK/smoke.json"
echo "== prometheus-exposition check (strict parse of a live hotcd /metrics)"
# On the daemon the load just ran against, drive a traced request so
# exemplars and the hotc_trace_*/hotc_slo_* families are live, then run
# the strict exposition parser (hotc-trace metrics) over the actual
# scrape output. A malformed line — bad escape, non-cumulative bucket,
# misplaced exemplar — fails here, not in a dashboard.
curl -sf -X POST "$BASE/function/echo" -d 'verify' \
	-H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' >/dev/null
curl -sf -X POST "$BASE/function/qr" -d 'verify' >/dev/null
"$WORK/hotc-trace" metrics "$BASE/metrics"
"$WORK/hotc-trace" spans "$BASE/system/trace" >/dev/null
stop_daemons
echo "== prefork smoke (generic handoff beats the full cold boot)"
# Boot a daemon with the generic pool armed, deploy a fresh 400ms
# function and time its first request: it must answer X-Hotc-Reused:
# false (it IS a cold start) with X-Hotc-Boot: generic, and complete
# well under the full 400ms — only the app-init share is paid.
start_daemon "$WORK/prefork.log" "$WORK/hotcd" -addr 127.0.0.1:0 -prefork -preload=false
sleep 0.5 # let the generic pool finish its prefill (120ms boots)
curl -sf -X POST "$BASE/system/functions" \
	-d '{"name":"fresh","handler":"upper","coldStartMs":400}' >/dev/null
T0=$(date +%s%N)
curl -sf -D "$WORK/prefork-headers" -o /dev/null \
	-X POST "$BASE/function/fresh" -d 'smoke'
T1=$(date +%s%N)
FIRST_MS=$(((T1 - T0) / 1000000))
grep -qi '^x-hotc-reused: false' "$WORK/prefork-headers" || {
	echo "verify: first request to a fresh function was not a cold start" >&2
	cat "$WORK/prefork-headers" >&2
	exit 1
}
grep -qi '^x-hotc-boot: generic' "$WORK/prefork-headers" || {
	echo "verify: first request did not specialize a generic watchdog" >&2
	cat "$WORK/prefork-headers" >&2
	exit 1
}
if [ "$FIRST_MS" -ge 300 ]; then
	echo "verify: generic handoff took ${FIRST_MS}ms, want well under the 400ms full cold" >&2
	exit 1
fi
echo "   generic handoff: ${FIRST_MS}ms (full cold is 400ms)"
stop_daemons
echo "== sharing smoke (second function's first request rents the first's idle instance)"
# Boot a daemon with inter-function sharing armed and a short idle
# grace, deploy two 400ms functions, warm the first, wait past the
# grace, then time the second function's very first request: it must
# answer X-Hotc-Boot: rented and complete well under the 400ms full
# cold — only wipe + app init is paid.
start_daemon "$WORK/share.log" "$WORK/hotcd" -addr 127.0.0.1:0 -share -share-idle-grace 100ms -preload=false
curl -sf -X POST "$BASE/system/functions" \
	-d '{"name":"lender","handler":"upper","coldStartMs":400}' >/dev/null
curl -sf -X POST "$BASE/system/functions" \
	-d '{"name":"renter","handler":"upper","coldStartMs":400}' >/dev/null
curl -sf -X POST "$BASE/function/lender" -d 'warmup' >/dev/null
sleep 0.3 # let the lender's instance age past the 100ms idle grace
T0=$(date +%s%N)
curl -sf -D "$WORK/share-headers" -o /dev/null \
	-X POST "$BASE/function/renter" -d 'smoke'
T1=$(date +%s%N)
RENT_MS=$(((T1 - T0) / 1000000))
grep -qi '^x-hotc-boot: rented' "$WORK/share-headers" || {
	echo "verify: renter's first request did not rent the lender's idle instance" >&2
	cat "$WORK/share-headers" >&2
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
stop_daemons
echo "== router smoke (hotc-router + 2 hotcd: routed request round-trips with trace headers)"
# Boot a two-node cluster behind the router and drive one traced
# request through it: the response must come back 200 with the
# caller's trace ID echoed (one trace crosses router -> node ->
# watchdog) and the serving node named in X-Hotc-Node.
start_daemon "$WORK/node1.log" "$WORK/hotcd" -addr 127.0.0.1:0
NODES="$BASE"
start_daemon "$WORK/node2.log" "$WORK/hotcd" -addr 127.0.0.1:0
NODES="$NODES,$BASE"
start_daemon "$WORK/router.log" "$WORK/hotc-router" -addr 127.0.0.1:0 -nodes "$NODES"
SMOKE_TRACE=4bf92f3577b34da6a3ce929d0e0e4736
curl -sf -D "$WORK/routed-headers" -o "$WORK/routed-body" \
	-X POST "$BASE/function/echo" -d 'routed' \
	-H "traceparent: 00-$SMOKE_TRACE-00f067aa0ba902b7-01"
grep -q '^routed$' "$WORK/routed-body" || {
	echo "verify: routed echo body wrong" >&2
	cat "$WORK/routed-body" >&2
	exit 1
}
grep -qi "^x-hotc-trace-id: $SMOKE_TRACE" "$WORK/routed-headers" || {
	echo "verify: routed response lost the trace ID" >&2
	cat "$WORK/routed-headers" >&2
	exit 1
}
grep -qi '^x-hotc-node: ' "$WORK/routed-headers" || {
	echo "verify: routed response names no serving node" >&2
	cat "$WORK/routed-headers" >&2
	exit 1
}
stop_daemons
echo "== metric-name and doc lint"
./scripts/lint-metrics.sh
echo "verify: OK"
