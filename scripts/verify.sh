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
echo "== go test -race (internal/archtest checks the design rules here)"
go test -race ./...
echo "== one control law, reproducibly (3x: plan table/properties and FuzzPlan's seeds, FuzzRetention's seeds, the lender rule's table and FuzzPick's seeds with the same-key lease, sim determinism, sim-vs-live parity, expiry leaves the planned set, the baselines' golden, the live clock, the span ring's first use)"
# Map-order bugs pass most single runs: the jittered four-key replay
# and the eviction tie-break diverge roughly one run in three without
# the fixed iteration order, so these run three times; so does the
# keep-alive baselines' golden replay, whose rules key maps by runtime,
# the live gateway's fake-clock tests, whose deadline contexts race
# the admission dispatcher, the span ring's writers racing to
# allocate its chunks against a reader, the keep-alive rules'
# fuzzer's seeds, the lender rule sharing.Pick — its table, its
# fuzzer's seeds and the gateway's same-key lease on the fake clock —
# and the janitor's fake-clock rows that pin what the plan holds
# against the keep-alive (named PlannedSet, so 'Plan' runs them).
go test -race -count=3 -run 'Determinis|Parity|Plan|BaselineReplayGolden|OnTheClock|ConcurrentFirstUse|FuzzRetention|FuzzPick|TestPick|SameKey' . ./internal/core/ ./internal/kernel/ ./internal/pool/ ./internal/faas/live/ ./internal/obs/ ./internal/sharing/
echo "== goroutine-leak check (live gateway)"
HOTC_LEAKCHECK=1 go test -race -count=1 ./internal/faas/live/
echo "== one iteration of BenchmarkGatewayParallel|ObsHotPath|GatewayThroughput|CampusReplay"
# Not a measurement (benchmark/ is): the testing.B benches compile and
# run once each, so bit-rot in them is caught here.
go test -run '^$' -bench 'GatewayParallel|ObsHotPath|GatewayThroughput' -benchtime=1x ./internal/faas/live/ ./internal/obs/
go test -run '^$' -bench CampusReplay -benchtime=1x .
echo "== alloc regression guard (non-race: AllocsPerRun)"
# The race run above skips these: the detector's instrumentation
# perturbs allocation counts. This non-race pass asserts the pooled
# copy (hop.Copy) and the []byte shim stay at zero heap allocations per request,
# one warm watchdog-hop round trip, one hop.Conn-to-hop.Serve exchange
# and one routed forward with its relay stay inside their budgets, and a warm
# simulator replay stays inside its allocations per simulated request,
# a warm hit with its exec and release allocates nothing, the
# scheduler recycles its events, a campus day is built into one
# presized schedule, and a node, its span ring and its SLO monitor are
# built without pre-touching the slots and buckets they fill later.
go test -run 'ZeroAlloc|AllocBudget' -count=1 . ./internal/core/ ./internal/faas/live/ ./internal/hop/ ./internal/obs/ ./internal/router/ ./internal/simclock/ ./internal/trace/
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
# expect_refused <base> <role>: send the front door at base one request
# with an Expect it refuses (417, unserved) and check that
# hotc_wire_refusals_total{role,reason="expect"} reads 1 there; and that
# its /metrics carries the other wire families, the body bytes it sent
# and its re-dials, under its role.
expect_refused() {
	code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$1/function/echo" -d 'x' -H 'Expect: 200-ok')"
	if [ "$code" != 417 ]; then
		echo "verify: the $2 answered an unsupported Expect with $code, want 417" >&2
		exit 1
	fi
	curl -sf "$1/metrics" | grep -qx "hotc_wire_refusals_total{role=\"$2\",reason=\"expect\"} 1" || {
		echo "verify: the $2's /metrics does not count the refused Expect once" >&2
		curl -sf "$1/metrics" | grep hotc_wire_refusals_total >&2 || true
		exit 1
	}
	for series in "hotc_wire_body_bytes_total{role=\"$2\",path=\"copied\"}" "hotc_wire_redials_total{role=\"$2\"}"; do
		curl -sf "$1/metrics" | grep -qF "$series " || {
			echo "verify: the $2's /metrics has no $series series" >&2
			exit 1
		}
	done
}
for c in hotcd hotc-load hotc-trace hotc-router; do
	go build -o "$WORK/$c" "./cmd/$c"
done
# A non-saturating rate through the admission tier at hotcd's defaults:
# the run must complete with non-zero goodput and zero 5xx, proving the
# generator and the daemon against a real socket path, once per backend
# (the default, in-process, last: the exposition check below reuses it).
# /system/stats must name the backend the flag chose.
for backend in socket in-process; do
	echo "== load-generator smoke (2s open loop against a real hotcd -backend $backend)"
	stop_daemons
	start_daemon "$WORK/hotcd-$backend.log" "$WORK/hotcd" -addr 127.0.0.1:0 -backend "$backend"
	curl -sf "$BASE/system/stats" | grep -q "\"backend\":\"$backend\"" || {
		echo "verify: /system/stats does not report backend $backend" >&2
		exit 1
	}
	"$WORK/hotc-load" -target "$BASE" -rate 50 -duration 2s -assert-min-ok 0.9 -assert-max-5xx 0 \
		-out "$WORK/smoke-$backend.json"
done
echo "== prometheus-exposition check (a refused head counted, then a strict parse of a live hotcd /metrics)"
# On the daemon the load just ran against, drive a traced request so
# exemplars and the hotc_trace_*/hotc_slo_* families are live, then run
# the strict exposition parser (hotc-trace metrics) over the actual
# scrape output. A malformed line — bad escape, non-cumulative bucket,
# misplaced exemplar — fails here, not in a dashboard.
curl -sf -X POST "$BASE/function/echo" -d 'verify' \
	-H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' >/dev/null
curl -sf -X POST "$BASE/function/qr" -d 'verify' >/dev/null
# A head the front door refuses before any handler runs (an Expect it
# does not support) counts once in hotc_wire_refusals_total.
expect_refused "$BASE" gateway
# A client names its tenant, and the goodput family labels a served
# request with it: a tab and a byte that is not UTF-8 must still leave
# an exposition the strict parser reads.
TAB="$(printf '\t')"
curl -sf -X POST "$BASE/function/echo" -d 'verify' -H "X-Hotc-Tenant: a${TAB}b$(printf '\351')" >/dev/null
curl -sf "$BASE/metrics" | grep -q "^hotc_adm_goodput_total{tenant=\"a${TAB}b" || {
	echo "verify: /metrics has no goodput series for the hostile tenant" >&2
	exit 1
}
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
echo "== router smoke (hotc-router + 2 hotcd: routed request round-trips with trace headers, a 2 MiB echo splices, a refused head is counted, /metrics parses)"
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
# A 2 MiB routed echo comes back byte for byte, and the node's reply
# crosses the router in the kernel: at least its 2 MiB count as spliced.
head -c 2097152 /dev/urandom >"$WORK/big"
curl -sf -o "$WORK/big-echo" -X POST "$BASE/function/echo" --data-binary "@$WORK/big"
cmp -s "$WORK/big" "$WORK/big-echo" || {
	echo "verify: a 2 MiB routed echo came back altered" >&2
	exit 1
}
SPLICED="$(curl -sf "$BASE/metrics" | awk '$1 == "hotc_wire_body_bytes_total{role=\"router\",path=\"spliced\"}" { print $2 + 0 }')"
if [ "${SPLICED:-0}" -lt 2097152 ]; then
	echo "verify: the router spliced ${SPLICED:-no} bytes of a 2 MiB routed echo, want at least 2097152" >&2
	exit 1
fi
expect_refused "$BASE" router
"$WORK/hotc-trace" metrics "$BASE/metrics"
stop_daemons
echo "== doc lint (bench estate, cited harness metrics)"
./scripts/lint-metrics.sh
echo "== size (tracked lines outside benchmark/ and testdata/; archtest is part of test Go)"
if git rev-parse --git-dir >/dev/null 2>&1; then
	lines() { git ls-files -- "$@" | grep -v -e '^benchmark/' -e '/testdata/' | tr '\n' '\0' | xargs -0 cat | wc -l; }
	echo "   non-test Go $(lines '*.go' ':!*_test.go')"
	echo "   test Go     $(lines '*_test.go')"
	echo "   archtest    $(lines 'internal/archtest/*.go')"
	echo "   DESIGN.md   $(lines DESIGN.md)"
	# DESIGN.md says what the code cannot: a table it shares with the
	# code is rendered from it (TestDocTables), and the rest stays short.
	if [ "$(lines DESIGN.md)" -gt 1200 ]; then
		echo "verify: DESIGN.md is over 1200 lines" >&2
		exit 1
	fi
else
	echo "   not a git checkout: line counts skipped"
fi
echo "   hotcd flags $("$WORK/hotcd" -h 2>&1 | grep -c '^  -')"
echo "verify: OK"
