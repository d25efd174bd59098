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
# boot, stopAll's teardowns and the accept loop (the hop's body writer
# lives in internal/hop).
for f in "$LIVE"/*.go; do
	case "$f" in *_test.go) continue ;; esac
	bad="$(grep -nE '^[[:space:]]*go ' "$f" |
		grep -vE 'go (g\.cycle\(|g\.prewarmOne\(|g\.server\.Serve\(|func\(i \*instance\) \{)' || true)"
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
echo "== one hop (live and router: /function/ requests go over internal/hop's owned connections)"
# The gateway forwarded to its watchdogs over an instance-owned
# connection while the router forwarded to its nodes with an
# http.Client, whose transport cost a warm routed request ~40 µs of CPU
# in goroutine handoffs, getConn and the request and header copies. So
# non-test internal/faas/live and internal/router/proxy.go name no
# http.Transport and call no .Do(: both proxy legs use internal/hop.
# (The router's control plane, in router.go, keeps Config.Client.)
if grep -nE 'http\.Transport|\.Do\(' $(ls "$LIVE"/*.go | grep -v '_test\.go$') internal/router/proxy.go >&2; then
	echo "verify: a /function/ forward through net/http's client: use a hop.Conn (the gateway's per instance, the router's per node free list)" >&2
	exit 1
fi
echo "== one copy loop (live and router: bodies move through hop.Copy in hop.BufSize chunks)"
# Three copy loops moved bodies: the gateway's copyPooled, and the
# router's io.Copy into its ResponseWriter, which net/http's ReadFrom
# runs in its own 32 KiB chunks. Every chunk is a read and a write on a
# socket, so a smaller second chunk size costs syscalls on every body.
# So non-test internal/faas/live and internal/router call no
# io.Copy/io.CopyBuffer/io.CopyN except into io.Discard, copyPooled does
# not come back, and the only byte chunk those two and internal/hop
# make is hop's pooled BufSize chunk. The router's replay buffer, made
# to a request's declared length, holds one body whole and is no copy
# chunk: that one make is not counted.
COPIERS="$(ls "$LIVE"/*.go internal/router/*.go | grep -v '_test\.go$')"
if grep -nE 'io\.Copy(Buffer|N)?\(' $COPIERS | grep -vE 'io\.Copy(Buffer|N)?\(io\.Discard,' >&2; then
	echo "verify: a body copy outside hop.Copy: move bytes with hop.Copy (into io.Discard, io.Copy is fine)" >&2
	exit 1
fi
if grep -rn --include='*.go' 'copyPooled' . >&2; then
	echo "verify: copyPooled is back: hop.Copy is the one copy loop" >&2
	exit 1
fi
n="$(ls $COPIERS internal/hop/*.go | grep -v '_test\.go$' | xargs grep -h 'make(\[\]byte' | grep -v 'make(\[\]byte, r\.ContentLength)' | grep -vc '^[[:space:]]*//' || true)"
if [ "$n" -ne 1 ]; then
	echo "verify: $n byte chunks are made in $LIVE, internal/router and internal/hop (want 1, hop's BufSize pool): take a chunk with hop.GetBuf" >&2
	exit 1
fi
echo "== one codec (watchdogs and the gateway's and router's front doors serve with hop.Server, the hop reads its own replies)"
# Both ends of the internal leg are this repository's code, yet a
# net/http.Server per watchdog parsed every request and
# http.ReadResponse every reply: general-purpose MIME parsing cost ~18 %
# of a warm request's CPU and ~50 of its allocations. The gateway's own
# net/http front door then kept every relayed body in user space: it
# splices neither a request body nor a chunked reply. The router's was
# the last net/http.Server on a request's path, and cost a routed warm
# request about a tenth of its throughput. So non-test internal/prefork,
# internal/hop, internal/faas/live, internal/router and cmd/hotc-router
# build no http.Server and call no http.ReadResponse or
# http.ReadRequest, and none wraps a body in http.MaxBytesReader or
# asks for EnableFullDuplex: internal/hop's Server, Serve and Conn are
# the one codec, its framing rules and body limit live there once, and
# its front door is full duplex.
CODEC="$(ls internal/prefork/*.go internal/hop/*.go "$LIVE"/*.go internal/router/*.go cmd/hotc-router/*.go | grep -v '_test\.go$')"
if grep -nE 'http\.(Server|ReadResponse|ReadRequest|MaxBytesReader)\b|EnableFullDuplex' $CODEC | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
	echo "verify: net/http's codec on a leg of a request: serve with hop.Server, read replies with hop.Conn, bound bodies with its limit" >&2
	exit 1
fi
# One accept loop: the watchdog kept its own accept loop, connection set
# and stop grace beside the gateway's server. hop.Server is every one
# now, so non-test internal/prefork, internal/faas/live, internal/router
# and cmd/hotc-router accept no connection.
if grep -nE '\.Accept\(\)' $(ls internal/prefork/*.go "$LIVE"/*.go internal/router/*.go cmd/hotc-router/*.go | grep -v '_test\.go$') >&2; then
	echo "verify: an accept loop outside hop.Server: serve the listener with a hop.Server" >&2
	exit 1
fi
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
echo "== one book (sim: every pool and gateway event counted once, in the registry every stack has)"
# The simulator's half of "counts only in the registry": the gateway, the
# pool and the controller count into the registry stack.New always hands
# them, and Pool.Stats and Gateway.ResilienceCounters read it back.
# Hand-kept twins (p.stats, g.retries, metrics.Counters) and the
# obs != nil branches that chose which book was kept drifted apart
# before, so non-test internal/faas (top level), internal/pool and
# internal/core test obs for nil nowhere, name metrics.Counters nowhere,
# increment no stats field in internal/pool, and bump
# hotc_resilience_events_total at one site, request.annotate.
SIM="$(ls internal/faas/*.go internal/pool/*.go internal/core/*.go | grep -v '_test\.go$')"
if grep -nE 'obs [!=]= nil' $SIM >&2; then
	echo "verify: a nil test on obs: every stack has its books, so count into g.obs/p.obs/h.books unconditionally" >&2
	exit 1
fi
if grep -n 'metrics\.Counters' $SIM >&2; then
	echo "verify: metrics.Counters is a second book: count into the registry and read it back with Counter.Value()" >&2
	exit 1
fi
if grep -nE 'stats\.[A-Za-z]+ *(\+\+|\+=)' $(echo "$SIM" | grep '^internal/pool/') >&2; then
	echo "verify: the pool keeps a hand-counted stat: increment its hotc_pool_* counter (p.obs) and let Pool.Stats read it back" >&2
	exit 1
fi
n="$(echo "$SIM" | xargs grep -hE 'events(\[[^]]*\]|\.With\([^)]*\))\.(Inc|Add)\(' | grep -vc '^[[:space:]]*//' || true)"
if [ "$n" -ne 1 ]; then
	echo "verify: hotc_resilience_events_total is incremented at $n sites in the sim (want 1): book a resilience event with request.annotate" >&2
	exit 1
fi
echo "== one book (live: every Stats field read back from the registry, each counted at one site)"
# The live half of "one book": the gateway kept eight hand-counted
# shard.stats integers beside the registry families that count the same
# events, and the two disagreed (hotc_coldpath_boots_total also counted
# prewarm boots). So non-test internal/faas/live increments no stats
# field, gives shard no stats field, names an eviction's reason to
# takeOldestLocked (an evictReason, never a pointer to a counter) and
# bumps hotc_coldpath_boots_total at one site, acquire.
LIVEGO="$(ls "$LIVE"/*.go | grep -v '_test\.go$')"
if grep -nE 'stats\.[A-Za-z]+ *(\+\+|\+=)' $LIVEGO >&2; then
	echo "verify: the live gateway hand-counts a stat: increment its registry counter (g.obs) and let Gateway.Stats read it back" >&2
	exit 1
fi
bad="$(awk '/^type shard struct/{body=1; next} body && /^}/{body=0} body && /^[[:space:]]*stats[[:space:]]/{print FILENAME":"FNR": "$0}' $LIVEGO)"
if [ -n "$bad" ]; then
	echo "$bad" >&2
	echo "verify: shard keeps a stats field: the registry is the gateway's one book" >&2
	exit 1
fi
if grep -nE 'takeOldestLocked\([^,]*, *(&|nil\))' $LIVEGO >&2; then
	echo "verify: takeOldestLocked given a pointer: pass the evictReason the removal is counted under (notEvicted for a lease or the Stop drain)" >&2
	exit 1
fi
n="$(echo "$LIVEGO" | xargs grep -hE 'coldBoots[A-Za-z]*(\[[^]]*\])?\.(Inc|Add)\(' | grep -vc '^[[:space:]]*//' || true)"
if [ "$n" -ne 1 ]; then
	echo "verify: hotc_coldpath_boots_total is incremented at $n sites in $LIVE (want 1): acquire counts the boot that served a request" >&2
	exit 1
fi
echo "== one control step (both substrates close an interval with kernel.Demand.Step and book it in the kernel's control books)"
# Algorithm 3's interval close — tick the demand accounting, forecast,
# plan, book the decision — was written twice, in core.HotC.tick and
# live.controlOnce, each with its own prediction trail and its own
# declaration of the hotc_ctl_* families, and the copies drifted (live's
# hotc_ctl_prewarm_total counted landings under a HELP that says asked).
# So non-test Go outside internal/kernel calls neither kernel.Plan nor a
# Demand's Tick and names no hotc_ctl_ family, and inside internal/kernel
# Plan and Tick are each called once, in Step.
bad="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build \
	-E 'kernel\.Plan\(|\.Tick\(\)|"hotc_ctl_' . | grep -v '^\./internal/kernel/' || true)"
if [ -n "$bad" ]; then
	echo "$bad" >&2
	echo "verify: a control interval closed or booked outside the kernel: call kernel.Demand.Step and apply its Boot/Retire, book the decision with the kernel's control books (kernel.KeyBooks.Record)" >&2
	exit 1
fi
KERNEL="$(ls internal/kernel/*.go | grep -v '_test\.go$')"
for call in '(^|[^A-Za-z_])Plan[(]' '[.]Tick[(][)]'; do
	sites="$(awk -v pat="$call" '/^func /{fn=$0} /^[[:space:]]*\/\//{next} $0 ~ pat && !/^func Plan[(]/ {print FILENAME":"FNR": in "fn}' $KERNEL)"
	if [ "$(echo "$sites" | grep -c 'func (d \*Demand) Step(')" -ne 1 ] || [ "$(echo "$sites" | grep -c .)" -ne 1 ]; then
		echo "$sites" >&2
		echo "verify: internal/kernel must call $call exactly once, in kernel.Demand.Step: every interval closes there" >&2
		exit 1
	fi
done
echo "== counted, not resolved per request (sim: occupancy is counted, a request's deployment and keys are resolved once)"
# What depends only on occupancy is counted where it changes, and what
# depends only on the deployment is resolved once, into a record the
# request points at. Walks over every container on each release and
# name-keyed lookups behind an RWMutex on every request cost the
# simulator a quarter of its time before, so non-test code ranges over
# the engine's containers only in Engine.Live and LiveContainers, and
# top-level internal/faas and internal/pool name no sync.RWMutex.
# A runtime key is resolved once, too: the engine interns it into a
# handle (Engine.KeyOf) that the spec and the container carry, and the
# gateway, the controller and the pool keep their per-key records in
# slices under it. Hashing the ~100-byte key on every request and tick
# cost the simulator a sixth of its time, so non-test internal/core,
# internal/pool, internal/container and top-level internal/faas read no
# map indexed with a .Key() call (a by-key report may still write one).
bad="$(awk '/^func /{fn=$0} /^[[:space:]]*\/\//{next} /range e\.containers/ && fn !~ /^func \(e \*Engine\) (Live|LiveContainers)\(/ {print FILENAME":"FNR": in "fn}' \
	$(ls internal/container/*.go | grep -v '_test\.go$'))"
if [ -n "$bad" ]; then
	echo "$bad" >&2
	echo "verify: the engine's containers walked outside Engine.Live/LiveContainers: count the occupancy where a state changes (Engine.setState)" >&2
	exit 1
fi
if grep -n 'sync\.RWMutex' $(ls internal/faas/*.go internal/pool/*.go | grep -v '_test\.go$') >&2; then
	echo "verify: an RWMutex in the simulator's request path: resolve the handles once into the deployment, runtime-key or pool entry record" >&2
	exit 1
fi
bad="$(grep -nE '\[[^]]*\.Key\(\)\]' $(ls internal/core/*.go internal/pool/*.go internal/container/*.go internal/faas/*.go | grep -v '_test\.go$') |
	grep -vE '\.Key\(\)\][[:space:]]*=[^=]' || true)"
if [ -n "$bad" ]; then
	echo "$bad" >&2
	echo "verify: a map indexed with a runtime key: reach the key's record through its handle (Engine.KeyOf on the spec or the container's spec)" >&2
	exit 1
fi
echo "== one placement (the router and the simulated cluster order nodes with kernel.Place)"
# hotc-router placed with warm affinity over a ring while the simulated
# cluster had a three-policy router of its own, so hotc-bench's cluster
# table measured a placement no deployment ran. So non-test Go calls
# kernel.Place once in internal/router (placement) and once in
# internal/cluster (place) and nowhere else, and internal/cluster orders
# no nodes itself: no leastLoaded, no rrNext, no comparison of in-flight
# counts.
sites="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build \
	-E '(^|[^A-Za-z_.])Place\(|kernel\.Place\(' . | grep -v 'func Place(' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ "$(echo "$sites" | grep -c '^\./internal/router/')" -ne 1 ] ||
	[ "$(echo "$sites" | grep -c '^\./internal/cluster/')" -ne 1 ] ||
	[ "$(echo "$sites" | grep -c .)" -ne 2 ]; then
	echo "$sites" >&2
	echo "verify: kernel.Place must be called once in internal/router and once in internal/cluster: both place with the one rule" >&2
	exit 1
fi
if grep -nE 'leastLoaded|rrNext|inFlight(\[[^]]*\])? *[<>]|[<>]=? *[A-Za-z_.]*inFlight' \
	$(ls internal/cluster/*.go | grep -v '_test\.go$') >&2; then
	echo "verify: internal/cluster orders nodes itself: build kernel.View records and let kernel.Place choose" >&2
	exit 1
fi
echo "== one lender rule (the simulated pool and the live gateway choose whom to rent from with sharing.Pick)"
# The pool picked its lender with shareCandidate's own scan while the
# gateway ran a two-pass lendableLocked scan, with other ties and other
# ideas of who may lend. So non-test Go calls sharing.Pick once in
# internal/pool (shareCandidate) and once in internal/faas/live
# (leaseInstance) and nowhere else, and neither old scan comes back.
sites="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build \
	-E '(^|[^A-Za-z_.])Pick\(|sharing\.Pick\(' . | grep -v 'func Pick(' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ "$(echo "$sites" | grep -c '^\./internal/pool/')" -ne 1 ] ||
	[ "$(echo "$sites" | grep -c '^\./internal/faas/live/')" -ne 1 ] ||
	[ "$(echo "$sites" | grep -c .)" -ne 2 ]; then
	echo "$sites" >&2
	echo "verify: sharing.Pick must be called once in internal/pool and once in internal/faas/live: both substrates rent with the one rule" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude-dir=.bench_build 'lendableLocked|bestSince' . >&2; then
	echo "verify: a lender scan of its own: build sharing.Offer records and let sharing.Pick choose" >&2
	exit 1
fi
echo "== one reclaim rule (the simulated pool and the live gateway pick every over-limit victim with kernel.Reclaim)"
# The pool evicted the oldest available container through two
# near-identical loops (makeRoom before a create, shrinkToCap after a
# release) while the gateway's memory budget water-filled (overQuota),
# taking from the largest holder: under load, the hot function. So
# non-test Go calls kernel.Reclaim once in internal/pool (EvictOldest)
# and once in internal/faas/live (the janitor's reclaim) and nowhere
# else, and neither the water-fill nor a second eviction loop comes
# back.
sites="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build \
	-E '(^|[^A-Za-z_.])Reclaim\(|kernel\.Reclaim\(' . | grep -v 'func Reclaim(' | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ "$(echo "$sites" | grep -c '^\./internal/pool/')" -ne 1 ] ||
	[ "$(echo "$sites" | grep -c '^\./internal/faas/live/')" -ne 1 ] ||
	[ "$(echo "$sites" | grep -c .)" -ne 2 ]; then
	echo "$sites" >&2
	echo "verify: kernel.Reclaim must be called once in internal/pool and once in internal/faas/live: both substrates give capacity back by the one rule" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude-dir=.bench_build 'overQuota|makeRoom|shrinkToCap' . >&2; then
	echo "verify: a reclaim rule or eviction loop of its own: feed the ages to kernel.Reclaim (the pool evicts through evictDownTo and EvictOldest)" >&2
	exit 1
fi
echo "== layers (the kernel is a leaf; the live stack links no simulator package, the simulator no live one)"
# Every decision and metric family both substrates share lives in
# internal/kernel. Before it, the shared rules sat in core, faas and
# router, so hotcd linked the simulator's pool, container, core and
# faas, and hotc-sim linked the live gateway, the router, admission and
# prefork. So, by go list -deps: the kernel reaches only obs, metrics,
# predictor and simclock; the live side reaches no simulator package;
# the simulator side reaches no live package.
layer() { # layer <forbidden packages, a regexp under hotc/internal/> <package>...
	forbid="$1"
	shift
	for p in "$@"; do
		bad="$(go list -deps "$p" | grep -xE "hotc/internal/($forbid)" || true)"
		if [ -n "$bad" ]; then
			echo "verify: $p reaches" $bad >&2
			echo "verify: a rule both substrates need goes in internal/kernel, not in either substrate's packages" >&2
			exit 1
		fi
	done
}
layer 'pool|container|faas|stack|core|cluster' ./internal/faas/live ./internal/router ./cmd/hotcd ./cmd/hotc-router
layer 'faas/live|router|admission|prefork' ./internal/stack ./internal/cluster . ./cmd/hotc-sim ./cmd/hotc-bench
bad="$(go list -deps ./internal/kernel | grep '^hotc' | grep -vxE 'hotc/internal/(kernel|obs|metrics|predictor|simclock)' || true)"
if [ -n "$bad" ]; then
	echo "verify: internal/kernel reaches" $bad >&2
	echo "verify: the kernel is a leaf: it may import only obs, predictor and simclock" >&2
	exit 1
fi
echo "== declared once (no hotc_* family registered at two sites)"
# Nine families were registered once per substrate, and the two
# declarations drifted apart (the simulator's hotc_pool_retired_total
# had no reason label), so one registry could not host both. So no
# metric name is the first argument of a registry constructor at two
# non-test sites, by the same extraction as lint-metrics.sh's first rule:
# a family both substrates count into is declared in the kernel's books.
dup="$(grep -rn --include='*.go' --exclude='*_test.go' \
	-E '\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("' \
	cmd internal *.go |
	grep -v '^internal/obs/' |
	sed -E 's/.*\.(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("([^"]*)".*/\2/' |
	sort | uniq -d)"
if [ -n "$dup" ]; then
	echo "$dup" >&2
	echo "verify: a metric family is registered at two sites: declare it once (internal/kernel's books when both substrates count into it)" >&2
	exit 1
fi
echo "== go test -race"
go test -race ./...
echo "== one control law, reproducibly (3x: plan table/properties, sim determinism, sim-vs-live parity)"
# Map-order bugs pass most single runs: the jittered four-key replay
# and the eviction tie-break diverge roughly one run in three without
# the fixed iteration order, so these run three times.
go test -race -count=3 -run 'Determinis|Parity|Plan' . ./internal/core/ ./internal/pool/ ./internal/faas/live/
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
# a warm hit with its exec and release allocates nothing, and the
# scheduler recycles its events.
go test -run 'ZeroAlloc|AllocBudget' -count=1 . ./internal/core/ ./internal/faas/live/ ./internal/hop/ ./internal/obs/ ./internal/router/ ./internal/simclock/
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
