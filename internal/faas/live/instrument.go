package live

import (
	"runtime"
	"sort"
	"time"

	"hotc/internal/kernel"
	"hotc/internal/obs"
)

// instruments bundles the live gateway's metric families plus the
// pre-resolved handles for the unlabeled (or fixed-label) families the
// hot path bumps. Every gateway has one, on its own registry.
type instruments struct {
	// The families the simulator counts into too, declared once in the
	// kernel: the request path's, and the pool's, which Stats reads
	// back (hotc_pool_{hits{kind="exact"},misses,prewarmed}_total, and
	// hotc_pool_retired_total{reason} per evictReason, notEvicted: nil).
	kernel.RequestBooks
	kernel.PoolBooks
	poolRetired [numEvictReasons]*obs.Counter

	warm   *obs.GaugeVec           // hotc_live_warm_instances{function}
	uptime *obs.Gauge              // hotc_uptime_seconds, refreshed on scrape
	events map[string]*obs.Counter // hotc_resilience_events_total{kind}, one child per resilienceKinds row

	// ctl are the control loop's books, the simulated controller's own
	// families (hotc_ctl_*), declared once in the kernel.
	ctl *kernel.Books

	// The gateway's wire books (hotc_wire_*{role="gateway"}): the body
	// bytes its front door and its instance connections send, and the
	// instance connections it dials anew.
	wireBody func(copied, spliced int64)
	redialed func()

	// bodyBytes tracks response bytes streamed to clients, recorded
	// from the copy loop's running count — the gateway never buffers a
	// body just to measure it.
	bodyBytes *obs.Histogram // hotc_gateway_body_bytes

	// Admission-control families (hotc_adm_*): the overload tier's
	// queue occupancy, waits, refusals and per-tenant goodput.
	admDepth        *obs.GaugeVec     // hotc_adm_queue_depth{function}
	admInFlight     *obs.GaugeVec     // hotc_adm_inflight{function}
	admWait         *obs.HistogramVec // hotc_adm_queue_wait_ms{function}
	admRejected     *obs.CounterVec   // hotc_adm_rejected_total{function, reason}
	admGoodput      *obs.CounterVec   // hotc_adm_goodput_total{tenant}
	admCanceled     *obs.Counter      // hotc_adm_canceled_total
	admMemBytes     *obs.Gauge        // hotc_adm_mem_bytes
	admMemReclaimed *obs.Counter      // hotc_adm_mem_reclaimed_total

	// Tracing families (hotc_trace_*): the tail sampler's verdict
	// counts. traceKept is pre-resolved per keep reason so the keep
	// path pays one map lookup and one atomic add.
	traceKept       map[string]*obs.Counter // hotc_trace_kept_total{reason}
	traceSampledOut *obs.Counter            // hotc_trace_sampled_out_total
	traceRingFull   *obs.Counter            // hotc_trace_ring_dropped_total

	// Cold-path families (hotc_coldpath_*): how each cold boot was
	// paid — generic handoff vs full boot, per-phase delays, generic
	// pool occupancy/refills/reaps, and pull megabytes the layer cache
	// saved.
	coldGenericIdle *obs.Gauge   // hotc_coldpath_generic_idle
	coldRefills     *obs.Counter // hotc_coldpath_refills_total
	coldReaped      *obs.Counter // hotc_coldpath_generic_reaped_total
	coldSkippedMB   *obs.Counter // hotc_coldpath_pull_skipped_mb_total

	// Sharing families (hotc_share_*): inter-function lease outcomes,
	// the lender/renter population, and the rented-boot phase split.
	shareLenders *obs.Gauge // hotc_share_lenders
	shareRenters *obs.Gauge // hotc_share_renters

	// The children of hotc_coldpath_phase_ms{phase} and
	// hotc_coldpath_boots_total{mode}, resolved once so the request path
	// pays a single atomic add.
	coldBoots        [bootCold + 1]*obs.Counter
	coldPhasePull    *obs.Histogram
	coldPhaseRuntime *obs.Histogram
	coldPhaseApp     *obs.Histogram

	shareLeaseGranted     *obs.Counter
	shareLeaseNoCandidate *obs.Counter
	shareLeaseDenied      *obs.Counter
	sharePhaseWipe        *obs.Histogram
	sharePhasePull        *obs.Histogram
	sharePhaseApp         *obs.Histogram
}

// shardMetrics is one function's pre-resolved series handles: every
// label lookup the request path and controller would otherwise pay per
// observation is done once here, leaving lock-free atomic updates on
// the hot path.
type shardMetrics struct {
	reqOK       *obs.Counter
	reqError    *obs.Counter
	reqRejected *obs.Counter
	reqCanceled *obs.Counter
	latency     *obs.Histogram
	warm        *obs.Gauge
	retired     *[numEvictReasons]*obs.Counter // the gateway-wide hotc_pool_retired_total{reason}
	breakerSt   *obs.Gauge
	admDepth    *obs.Gauge
	admInFlight *obs.Gauge
	admWait     *obs.Histogram
}

// forFunction resolves the per-function handle set.
func (ins *instruments) forFunction(name string) *shardMetrics {
	return &shardMetrics{
		reqOK:       ins.Requests.With(name, "ok"),
		reqError:    ins.Requests.With(name, "error"),
		reqRejected: ins.Requests.With(name, "rejected"),
		reqCanceled: ins.Requests.With(name, "canceled"),
		latency:     ins.Latency.With(name),
		warm:        ins.warm.With(name),
		retired:     &ins.poolRetired,
		breakerSt:   ins.Breaker.With(name),
		admDepth:    ins.admDepth.With(name),
		admInFlight: ins.admInFlight.With(name),
		admWait:     ins.admWait.With(name),
	}
}

// newInstruments registers the gateway's metric families on its
// registry. The families the simulator counts into too are the
// kernel's, so dashboards built against a sim dump read hotcd's
// /metrics unchanged.
func newInstruments(reg *obs.Registry) *instruments {
	coldBoots := reg.CounterVec("hotc_coldpath_boots_total",
		"Cold boots behind requests, by mode (rented = leased from another function, generic = specialized from the pre-forked pool, cold = full boot).",
		"mode")
	coldPhase := reg.HistogramVec("hotc_coldpath_phase_ms",
		"Cold-boot phase delays actually paid, in milliseconds, by phase (pull|runtime_init|app_init); a zero pull is a layer-cache hit.",
		obs.DefaultLatencyBucketsMS(), "phase")
	shareLeases := reg.CounterVec("hotc_share_leases_total",
		"Inter-function lease attempts by outcome (granted|no_candidate|denied_policy).",
		"outcome")
	sharePhase := reg.HistogramVec("hotc_share_boot_phase_ms",
		"Rented-boot phase delays actually paid, in milliseconds, by phase (wipe|pull|app_init); a zero pull is a same-image lease.",
		obs.DefaultLatencyBucketsMS(), "phase")
	ins := &instruments{
		RequestBooks: kernel.NewRequestBooks(reg),
		PoolBooks:    kernel.NewPoolBooks(reg),
		warm: reg.GaugeVec("hotc_live_warm_instances",
			"Idle warm watchdog instances per function.",
			"function"),
		uptime: reg.Gauge("hotc_uptime_seconds",
			"Seconds since the daemon started, refreshed on scrape."),
		ctl:      kernel.NewBooks(reg),
		wireBody: kernel.WireBodyBytes(reg, "gateway"),
		redialed: kernel.WireRedials(reg, "gateway"),
		bodyBytes: reg.Histogram("hotc_gateway_body_bytes",
			"Response bytes streamed through the gateway per request.",
			obs.DefaultBodySizeBuckets()),
		admDepth: reg.GaugeVec("hotc_adm_queue_depth",
			"Requests waiting in the admission queue, per function.",
			"function"),
		admInFlight: reg.GaugeVec("hotc_adm_inflight",
			"Requests dispatched and executing, per function.",
			"function"),
		admWait: reg.HistogramVec("hotc_adm_queue_wait_ms",
			"Time admitted requests spent queued before dispatch, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		admRejected: reg.CounterVec("hotc_adm_rejected_total",
			"Requests refused by admission control, by function and reason (queue_full|deadline|canceled|stopped).",
			"function", "reason"),
		admGoodput: reg.CounterVec("hotc_adm_goodput_total",
			"Requests completed successfully, by tenant.",
			"tenant"),
		admCanceled: reg.Counter("hotc_adm_canceled_total",
			"In-flight backend calls canceled by client disconnect or deadline expiry."),
		admMemBytes: reg.Gauge("hotc_adm_mem_bytes",
			"Estimated memory held by warm instances across all functions."),
		admMemReclaimed: reg.Counter("hotc_adm_mem_reclaimed_total",
			"Warm instances reclaimed by memory-budget pressure."),
		coldGenericIdle: reg.Gauge("hotc_coldpath_generic_idle",
			"Idle generic pre-forked watchdogs ready for specialization."),
		coldRefills: reg.Counter("hotc_coldpath_refills_total",
			"Generic watchdog boots completed by pool refills."),
		coldReaped: reg.Counter("hotc_coldpath_generic_reaped_total",
			"Generic pre-forked watchdogs stopped by memory-budget pressure."),
		coldSkippedMB: reg.Counter("hotc_coldpath_pull_skipped_mb_total",
			"Image megabytes not pulled thanks to layer-cache hits."),
		shareLenders: reg.Gauge("hotc_share_lenders",
			"Functions currently classified as lenders (persistently over-forecasted or idle-heavy)."),
		shareRenters: reg.Gauge("hotc_share_renters",
			"Functions currently classified as renters (persistently under-forecasted)."),
	}
	reg.GaugeVec("hotc_build_info",
		"Build metadata: constant 1, labeled by gateway version and Go runtime version.",
		"version", "go_version").With(Version, runtime.Version()).Set(1)
	ins.events = make(map[string]*obs.Counter, len(resilienceKinds))
	for _, k := range resilienceKinds {
		ins.events[k.kind] = ins.Events.With(k.kind)
	}
	traceKept := reg.CounterVec("hotc_trace_kept_total",
		"Spans retained by the tail sampler, by keep reason (error|shed|cold|slow|sampled).",
		"reason")
	ins.traceKept = make(map[string]*obs.Counter, len(obs.KeepReasons()))
	for _, reason := range obs.KeepReasons() {
		ins.traceKept[reason] = traceKept.With(reason)
	}
	ins.traceSampledOut = reg.Counter("hotc_trace_sampled_out_total",
		"Completed requests whose spans the tail sampler dropped.")
	ins.traceRingFull = reg.Counter("hotc_trace_ring_dropped_total",
		"Kept spans dropped because their trace-ring slot was busy.")
	for m := bootRented; m <= bootCold; m++ {
		ins.coldBoots[m] = coldBoots.With(m.String())
	}
	for r := evictScaleDown; r < numEvictReasons; r++ {
		ins.poolRetired[r] = ins.Retired.With(evictReasons[r])
	}
	ins.coldPhasePull = coldPhase.With("pull")
	ins.coldPhaseRuntime = coldPhase.With("runtime_init")
	ins.coldPhaseApp = coldPhase.With("app_init")
	ins.shareLeaseGranted = shareLeases.With("granted")
	ins.shareLeaseNoCandidate = shareLeases.With("no_candidate")
	ins.shareLeaseDenied = shareLeases.With("denied_policy")
	ins.sharePhaseWipe = sharePhase.With("wipe")
	ins.sharePhasePull = sharePhase.With("pull")
	ins.sharePhaseApp = sharePhase.With("app_init")
	return ins
}

// observe emits the per-request latency and outcome counters through
// the shard's cached handles: no locks, no label resolution.
func (s *shard) observe(outcome string, latency time.Duration) {
	m := s.m
	switch outcome {
	case "ok":
		m.reqOK.Inc()
	case "rejected":
		m.reqRejected.Inc()
	case "canceled":
		m.reqCanceled.Inc()
	default:
		m.reqError.Inc()
	}
	m.latency.ObserveDuration(latency)
}

// uptime is the clock's offset from the gateway's construction: what
// hotc_uptime_seconds reports, and the breaker's time base, matching the
// simulated breaker's virtual time contract.
func (g *Gateway) uptime() time.Duration { return g.clock.Now().Sub(g.started) }

// breakerAllow reports whether a request for the function may proceed,
// counting the fast-fail when it may not; a refusal comes with the
// remainder of the breaker's open window, the honest Retry-After. With
// breaking disabled (the default) the shard has no breaker and this is
// one nil test.
func (g *Gateway) breakerAllow(s *shard) (bool, time.Duration) {
	if s.breaker == nil {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := g.uptime()
	ok := s.breaker.Allow(now)
	var retryAfter time.Duration
	if !ok {
		retryAfter = s.breaker.RemainingOpen(now)
		g.event("breaker-rejected")
	}
	g.syncBreakerGaugeLocked(s)
	return ok, retryAfter
}

// breakerFailure counts a backend failure (boot or proxy) under the
// named resilience kind and feeds it into the function's breaker.
func (g *Gateway) breakerFailure(s *shard, kind string) {
	g.event(kind)
	if s.breaker == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.breaker.OnFailure(g.uptime()) {
		g.event("breaker-open")
	}
	g.syncBreakerGaugeLocked(s)
}

// breakerSuccess records a successful proxy round-trip.
func (g *Gateway) breakerSuccess(s *shard) {
	if s.breaker == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.breaker.State(g.uptime()) != kernel.BreakerClosed {
		g.event("breaker-close")
	}
	s.breaker.OnSuccess()
	g.syncBreakerGaugeLocked(s)
}

// resilienceKinds is the one table of resilience events: each
// hotc_resilience_events_total{kind} and the /system/stats "resilience"
// key that reports the same count.
var resilienceKinds = [...]struct{ kind, key string }{
	{"boot.failures", "boot.failures"},
	{"proxy.failures", "proxy.failures"},
	{"breaker-open", "breaker.trips"},
	{"breaker-close", "breaker.closes"},
	{"breaker-rejected", "breaker.rejected"},
	{"prewarm-boot-failure", "prewarm.failures"},
	{"watchdog-serve-error", "watchdog.serve_errors"},
	{"prefork-boot-failure", "prefork.boot_failures"},
}

// evictReason is the hotc_pool_retired_total{reason} child a removal is
// counted under; notEvicted (a lease, the Stop drain) is counted under
// none. Expired comes last: Stats.Retired sums the reasons before it.
type evictReason uint8

const (
	notEvicted     evictReason = iota
	evictScaleDown             // the controller's Retire
	evictCap                   // release parks one past MaxIdlePerFunction
	evictBudget                // the memory budget's reclaim
	evictRedeploy              // Register drains the old deployment
	evictExpired               // the janitor's keep-alive
	numEvictReasons
)

var evictReasons = [numEvictReasons]string{"", kernel.RetireScaleDown, kernel.RetireCap, kernel.RetireBudget, kernel.RetireRedeploy, kernel.RetireExpired}

// event counts one resilience event; kind is a row of resilienceKinds.
func (g *Gateway) event(kind string) { g.obs.events[kind].Inc() }

// syncBreakerGaugeLocked refreshes the breaker-state gauge. Caller
// holds s.mu.
func (g *Gateway) syncBreakerGaugeLocked(s *shard) {
	s.m.breakerSt.Set(float64(s.breaker.State(g.uptime())))
}

// ResilienceCounters reads hotc_resilience_events_total back under the
// /system/stats keys of resilienceKinds. Counters with zero value are
// absent.
func (g *Gateway) ResilienceCounters() map[string]int {
	out := make(map[string]int)
	for _, k := range resilienceKinds {
		if n := int(g.obs.events[k.kind].Value()); n > 0 {
			out[k.key] = n
		}
	}
	return out
}

// WarmAges reports each function's idle warm-instance ages at now, in
// seconds, oldest first.
func (g *Gateway) WarmAges(now time.Time) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		if len(s.idle) == 0 {
			s.mu.Unlock()
			continue
		}
		ages := make([]float64, 0, len(s.idle))
		for _, inst := range s.idle {
			ages = append(ages, now.Sub(inst.idleSince).Seconds())
		}
		s.mu.Unlock()
		sort.Sort(sort.Reverse(sort.Float64Slice(ages)))
		out[s.name] = ages
	}
	return out
}
