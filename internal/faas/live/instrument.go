package live

import (
	"sort"
	"time"

	"hotc/internal/faas"
	"hotc/internal/obs"
)

// instruments bundles the live gateway's metric families plus the
// pre-resolved handles for the unlabeled (or fixed-label) families the
// hot path bumps. Every gateway has one, on its own registry.
type instruments struct {
	requests     *obs.CounterVec         // hotc_requests_total{function, outcome}
	latency      *obs.HistogramVec       // hotc_request_latency_ms{function}
	warm         *obs.GaugeVec           // hotc_live_warm_instances{function}
	events       map[string]*obs.Counter // hotc_resilience_events_total{kind}, one child per resilienceKinds row
	breakerState *obs.GaugeVec           // hotc_breaker_state{key}

	// Controller families share the simulated control loop's names
	// (core.HotC.Instrument), so dashboards read either substrate.
	ctlDemand   *obs.GaugeVec // hotc_ctl_demand{key}
	ctlForecast *obs.GaugeVec // hotc_ctl_forecast{key}
	ctlTarget   *obs.GaugeVec // hotc_ctl_target{key}
	ctlPrewarm  *obs.Counter  // hotc_ctl_prewarm_total
	ctlRetire   *obs.Counter  // hotc_ctl_retire_total
	ctlTicks    *obs.Counter  // hotc_ctl_ticks_total
	poolRetired *obs.Counter  // hotc_pool_retired_total

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

	// startsWarm/startsCold are the two children of hotc_starts_total{mode},
	// resolved once so the request path pays a single atomic add; likewise
	// hotc_coldpath_boots_total{mode} and hotc_coldpath_phase_ms{phase}.
	startsWarm       *obs.Counter
	startsCold       *obs.Counter
	coldBootsGeneric *obs.Counter
	coldBootsFull    *obs.Counter
	coldBootsRented  *obs.Counter
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
	poolRetired *obs.Counter // the gateway-wide hotc_pool_retired_total
	breakerSt   *obs.Gauge
	ctlDemand   *obs.Gauge
	ctlForecast *obs.Gauge
	ctlTarget   *obs.Gauge
	admDepth    *obs.Gauge
	admInFlight *obs.Gauge
	admWait     *obs.Histogram
}

// forFunction resolves the per-function handle set.
func (ins *instruments) forFunction(name string) *shardMetrics {
	return &shardMetrics{
		reqOK:       ins.requests.With(name, "ok"),
		reqError:    ins.requests.With(name, "error"),
		reqRejected: ins.requests.With(name, "rejected"),
		reqCanceled: ins.requests.With(name, "canceled"),
		latency:     ins.latency.With(name),
		warm:        ins.warm.With(name),
		poolRetired: ins.poolRetired,
		breakerSt:   ins.breakerState.With(name),
		ctlDemand:   ins.ctlDemand.With(name),
		ctlForecast: ins.ctlForecast.With(name),
		ctlTarget:   ins.ctlTarget.With(name),
		admDepth:    ins.admDepth.With(name),
		admInFlight: ins.admInFlight.With(name),
		admWait:     ins.admWait.With(name),
	}
}

// newInstruments registers the gateway's metric families on its
// registry. The families reuse the simulated pipeline's names, so
// dashboards built against a sim dump read hotcd's /metrics unchanged.
func newInstruments(reg *obs.Registry) *instruments {
	starts := reg.CounterVec("hotc_starts_total",
		"Watchdog instance starts behind served requests, by mode (warm = reused, cold = fresh boot).",
		"mode")
	coldBoots := reg.CounterVec("hotc_coldpath_boots_total",
		"Cold boots by mode (generic = specialized from the pre-forked pool, cold = full boot).",
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
		requests: reg.CounterVec("hotc_requests_total",
			"Requests handled by the gateway, by function and outcome (ok|error|rejected|canceled).",
			"function", "outcome"),
		latency: reg.HistogramVec("hotc_request_latency_ms",
			"End-to-end request latency at the gateway, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		warm: reg.GaugeVec("hotc_live_warm_instances",
			"Idle warm watchdog instances per function.",
			"function"),
		breakerState: reg.GaugeVec("hotc_breaker_state",
			"Per-function circuit breaker state (0 closed, 1 open, 2 half-open).",
			"key"),
		ctlDemand: reg.GaugeVec("hotc_ctl_demand",
			"Observed peak concurrent demand per runtime key in the last control interval.",
			"key"),
		ctlForecast: reg.GaugeVec("hotc_ctl_forecast",
			"Demand forecast per runtime key for the next control interval.",
			"key"),
		ctlTarget: reg.GaugeVec("hotc_ctl_target",
			"Pool size target per runtime key after headroom, floors and hysteresis.",
			"key"),
		ctlPrewarm: reg.Counter("hotc_ctl_prewarm_total",
			"Containers the control loop asked the pool to pre-warm."),
		ctlRetire: reg.Counter("hotc_ctl_retire_total",
			"Containers the control loop retired on scale-down."),
		ctlTicks: reg.Counter("hotc_ctl_ticks_total",
			"Control loop ticks executed."),
		poolRetired: reg.Counter("hotc_pool_retired_total",
			"Containers stopped by scale-down, cap eviction or keep-alive expiry."),
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
	events := reg.CounterVec("hotc_resilience_events_total",
		"Resilience events on the request path, by kind.",
		"kind")
	ins.events = make(map[string]*obs.Counter, len(resilienceKinds))
	for _, k := range resilienceKinds {
		ins.events[k.kind] = events.With(k.kind)
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
	ins.startsWarm = starts.With("warm")
	ins.startsCold = starts.With("cold")
	ins.coldBootsGeneric = coldBoots.With("generic")
	ins.coldBootsFull = coldBoots.With("cold")
	ins.coldBootsRented = coldBoots.With("rented")
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
func (s *shard) observe(outcome string, start time.Time) {
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
	m.latency.ObserveDuration(time.Since(start))
}

// since is the gateway's monotonic clock for the breaker: offsets from
// the gateway's construction, matching the simulated breaker's virtual
// time contract.
func (g *Gateway) since() time.Duration { return time.Since(g.epoch) }

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
	now := g.since()
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
	if s.breaker.OnFailure(g.since()) {
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
	if s.breaker.State(g.since()) != faas.BreakerClosed {
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

// event counts one resilience event; kind is a row of resilienceKinds.
func (g *Gateway) event(kind string) { g.obs.events[kind].Inc() }

// syncBreakerGaugeLocked refreshes the breaker-state gauge. Caller
// holds s.mu.
func (g *Gateway) syncBreakerGaugeLocked(s *shard) {
	s.m.breakerSt.Set(float64(s.breaker.State(g.since())))
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
