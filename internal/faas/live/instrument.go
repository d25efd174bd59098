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
	requests     *obs.CounterVec   // hotc_requests_total{function, outcome}
	starts       *obs.CounterVec   // hotc_starts_total{mode}
	latency      *obs.HistogramVec // hotc_request_latency_ms{function}
	warm         *obs.GaugeVec     // hotc_live_warm_instances{function}
	events       *obs.CounterVec   // hotc_resilience_events_total{kind}
	breakerState *obs.GaugeVec     // hotc_breaker_state{key}

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
	coldBoots       *obs.CounterVec   // hotc_coldpath_boots_total{mode}
	coldPhase       *obs.HistogramVec // hotc_coldpath_phase_ms{phase}
	coldGenericIdle *obs.Gauge        // hotc_coldpath_generic_idle
	coldRefills     *obs.Counter      // hotc_coldpath_refills_total
	coldReaped      *obs.Counter      // hotc_coldpath_generic_reaped_total
	coldSkippedMB   *obs.Counter      // hotc_coldpath_pull_skipped_mb_total

	// Sharing families (hotc_share_*): inter-function lease outcomes,
	// the lender/renter population, and the rented-boot phase split.
	shareLeases  *obs.CounterVec   // hotc_share_leases_total{outcome}
	shareLenders *obs.Gauge        // hotc_share_lenders
	shareRenters *obs.Gauge        // hotc_share_renters
	sharePhase   *obs.HistogramVec // hotc_share_boot_phase_ms{phase}

	// startsWarm/startsCold are the two children of starts, resolved
	// once so the request path pays a single atomic add; the coldBoots
	// and coldPhase children likewise.
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
	ins := &instruments{
		requests: reg.CounterVec("hotc_requests_total",
			"Requests handled by the gateway, by function and outcome (ok|error|rejected|canceled).",
			"function", "outcome"),
		starts: reg.CounterVec("hotc_starts_total",
			"Watchdog instance starts behind served requests, by mode (warm = reused, cold = fresh boot).",
			"mode"),
		latency: reg.HistogramVec("hotc_request_latency_ms",
			"End-to-end request latency at the gateway, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		warm: reg.GaugeVec("hotc_live_warm_instances",
			"Idle warm watchdog instances per function.",
			"function"),
		events: reg.CounterVec("hotc_resilience_events_total",
			"Resilience events on the request path, by kind.",
			"kind"),
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
		coldBoots: reg.CounterVec("hotc_coldpath_boots_total",
			"Cold boots by mode (generic = specialized from the pre-forked pool, cold = full boot).",
			"mode"),
		coldPhase: reg.HistogramVec("hotc_coldpath_phase_ms",
			"Cold-boot phase delays actually paid, in milliseconds, by phase (pull|runtime_init|app_init); a zero pull is a layer-cache hit.",
			obs.DefaultLatencyBucketsMS(), "phase"),
		coldGenericIdle: reg.Gauge("hotc_coldpath_generic_idle",
			"Idle generic pre-forked watchdogs ready for specialization."),
		coldRefills: reg.Counter("hotc_coldpath_refills_total",
			"Generic watchdog boots completed by pool refills."),
		coldReaped: reg.Counter("hotc_coldpath_generic_reaped_total",
			"Generic pre-forked watchdogs stopped by memory-budget pressure."),
		coldSkippedMB: reg.Counter("hotc_coldpath_pull_skipped_mb_total",
			"Image megabytes not pulled thanks to layer-cache hits."),
		shareLeases: reg.CounterVec("hotc_share_leases_total",
			"Inter-function lease attempts by outcome (granted|no_candidate|denied_policy).",
			"outcome"),
		shareLenders: reg.Gauge("hotc_share_lenders",
			"Functions currently classified as lenders (persistently over-forecasted or idle-heavy)."),
		shareRenters: reg.Gauge("hotc_share_renters",
			"Functions currently classified as renters (persistently under-forecasted)."),
		sharePhase: reg.HistogramVec("hotc_share_boot_phase_ms",
			"Rented-boot phase delays actually paid, in milliseconds, by phase (wipe|pull|app_init); a zero pull is a same-image lease.",
			obs.DefaultLatencyBucketsMS(), "phase"),
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
	ins.startsWarm = ins.starts.With("warm")
	ins.startsCold = ins.starts.With("cold")
	ins.coldBootsGeneric = ins.coldBoots.With("generic")
	ins.coldBootsFull = ins.coldBoots.With("cold")
	ins.coldBootsRented = ins.coldBoots.With("rented")
	ins.coldPhasePull = ins.coldPhase.With("pull")
	ins.coldPhaseRuntime = ins.coldPhase.With("runtime_init")
	ins.coldPhaseApp = ins.coldPhase.With("app_init")
	ins.shareLeaseGranted = ins.shareLeases.With("granted")
	ins.shareLeaseNoCandidate = ins.shareLeases.With("no_candidate")
	ins.shareLeaseDenied = ins.shareLeases.With("denied_policy")
	ins.sharePhaseWipe = ins.sharePhase.With("wipe")
	ins.sharePhasePull = ins.sharePhase.With("pull")
	ins.sharePhaseApp = ins.sharePhase.With("app_init")
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

// observeUnknown records a request for a name with no shard (404s).
// Off the hot path, so the Vec lookup cost is fine.
func (g *Gateway) observeUnknown(name string, start time.Time) {
	g.obs.requests.With(name, "error").Inc()
	g.obs.latency.With(name).ObserveDuration(time.Since(start))
}

// since is the gateway's monotonic clock for the breaker: offsets from
// the gateway's construction, matching the simulated breaker's virtual
// time contract.
func (g *Gateway) since() time.Duration { return time.Since(g.epoch) }

// breakerLocked lazily builds the shard's breaker; nil when breaking
// is disabled (PoolConfig.BreakerThreshold 0). Caller holds s.mu.
func (g *Gateway) breakerLocked(s *shard) *faas.Breaker {
	if g.cfg.BreakerThreshold <= 0 {
		return nil
	}
	if s.breaker == nil {
		s.breaker = faas.NewBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerOpenFor)
	}
	return s.breaker
}

// breakerAllow reports whether a request for the function may proceed,
// counting and fast-fail accounting when it may not; a refusal comes
// with the remainder of the breaker's open window, the honest
// Retry-After. With breaking disabled (the default) this is one branch
// on an immutable field.
func (g *Gateway) breakerAllow(s *shard) (bool, time.Duration) {
	if g.cfg.BreakerThreshold <= 0 {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := g.breakerLocked(s)
	now := g.since()
	ok := b.Allow(now)
	var retryAfter time.Duration
	if !ok {
		retryAfter = b.RemainingOpen(now)
		s.resLocked("breaker.rejected")
		g.event("breaker-rejected")
	}
	s.syncBreakerGaugeLocked(b, g.since())
	return ok, retryAfter
}

// breakerFailure feeds a backend failure (boot or proxy) into the
// function's breaker and bumps the named resilience counter.
func (g *Gateway) breakerFailure(s *shard, counter string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resLocked(counter)
	g.event(counter)
	b := g.breakerLocked(s)
	if b == nil {
		return
	}
	if b.OnFailure(g.since()) {
		s.resLocked("breaker.trips")
		g.event("breaker-open")
	}
	s.syncBreakerGaugeLocked(b, g.since())
}

// breakerSuccess records a successful proxy round-trip.
func (g *Gateway) breakerSuccess(s *shard) {
	if g.cfg.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := g.breakerLocked(s)
	if b.State(g.since()) != faas.BreakerClosed {
		s.resLocked("breaker.closes")
		g.event("breaker-close")
	}
	b.OnSuccess()
	s.syncBreakerGaugeLocked(b, g.since())
}

// event bumps the resilience-event metric (failure paths only).
func (g *Gateway) event(kind string) { g.obs.events.With(kind).Inc() }

// syncBreakerGaugeLocked refreshes the breaker-state gauge. Caller
// holds s.mu.
func (s *shard) syncBreakerGaugeLocked(b *faas.Breaker, at time.Duration) {
	s.m.breakerSt.Set(float64(b.State(at)))
}

// ResilienceCounters sums the per-shard failure/breaker counters
// (boot.failures, proxy.failures, breaker.trips, breaker.closes,
// breaker.rejected) plus the gateway-wide watchdog accept-loop and
// generic-boot failures. Counters with zero value are absent.
func (g *Gateway) ResilienceCounters() map[string]int {
	out := make(map[string]int)
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		for k, v := range s.res {
			out[k] += v
		}
		s.mu.Unlock()
	}
	if n := g.cold.serveErrs.Load(); n > 0 {
		out["watchdog.serve_errors"] += int(n)
	}
	if n := g.cold.bootErrs.Load(); n > 0 {
		out["prefork.boot_failures"] += int(n)
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
