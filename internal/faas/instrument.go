package faas

import (
	"sync"
	"time"

	"hotc/internal/obs"
)

// fnHandles holds the pre-resolved per-function series so the request
// path records metrics without label joins or vec lookups.
type fnHandles struct {
	reqOK     *obs.Counter
	reqErr    *obs.Counter
	latency   *obs.Histogram
	queueWait *obs.Histogram
}

// keyHandles holds the pre-resolved per-runtime-key series.
type keyHandles struct {
	acquire      *obs.Histogram
	breakerState *obs.Gauge
}

// instruments bundles the gateway's metric families. nil (the default)
// means uninstrumented — the hot path pays only a nil check. Handles
// for label combinations seen in traffic are resolved once and cached,
// so steady-state recording is vec-lookup free.
type instruments struct {
	requests     *obs.CounterVec   // hotc_requests_total{function, outcome}
	starts       *obs.CounterVec   // hotc_starts_total{mode}
	latency      *obs.HistogramVec // hotc_request_latency_ms{function}
	queueWait    *obs.HistogramVec // hotc_gateway_queue_wait_ms{function}
	acquire      *obs.HistogramVec // hotc_acquire_latency_ms{key}
	events       *obs.CounterVec   // hotc_resilience_events_total{kind}
	breakerState *obs.GaugeVec     // hotc_breaker_state{key}

	startsWarm *obs.Counter // hotc_starts_total{mode="warm"}
	startsCold *obs.Counter // hotc_starts_total{mode="cold"}

	mu   sync.RWMutex
	fns  map[string]*fnHandles
	keys map[string]*keyHandles
}

// forFunction returns the cached handles for one function, resolving
// them on first sight.
func (ins *instruments) forFunction(name string) *fnHandles {
	ins.mu.RLock()
	h := ins.fns[name]
	ins.mu.RUnlock()
	if h != nil {
		return h
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if h := ins.fns[name]; h != nil {
		return h
	}
	h = &fnHandles{
		reqOK:     ins.requests.With(name, "ok"),
		reqErr:    ins.requests.With(name, "error"),
		latency:   ins.latency.With(name),
		queueWait: ins.queueWait.With(name),
	}
	ins.fns[name] = h
	return h
}

// forKey returns the cached handles for one runtime key.
func (ins *instruments) forKey(key string) *keyHandles {
	ins.mu.RLock()
	h := ins.keys[key]
	ins.mu.RUnlock()
	if h != nil {
		return h
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if h := ins.keys[key]; h != nil {
		return h
	}
	h = &keyHandles{
		acquire:      ins.acquire.With(key),
		breakerState: ins.breakerState.With(key),
	}
	ins.keys[key] = h
	return h
}

// Instrument registers the gateway's metric families on the registry
// and turns on recording. Safe to call before any traffic; calling with
// nil turns instrumentation off.
func (g *Gateway) Instrument(reg *obs.Registry) {
	if reg == nil {
		g.obs = nil
		return
	}
	ins := &instruments{
		requests: reg.CounterVec("hotc_requests_total",
			"Requests handled by the gateway, by function and outcome (ok|error).",
			"function", "outcome"),
		starts: reg.CounterVec("hotc_starts_total",
			"Container starts behind served requests, by mode (warm = live runtime reused, cold = fresh boot).",
			"mode"),
		latency: reg.HistogramVec("hotc_request_latency_ms",
			"End-to-end request latency (client in to client out), in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		queueWait: reg.HistogramVec("hotc_gateway_queue_wait_ms",
			"Time spent queued behind the per-function concurrency cap, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		acquire: reg.HistogramVec("hotc_acquire_latency_ms",
			"Gateway-to-watchdog time: forwarding plus runtime acquisition with retries, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "key"),
		events: reg.CounterVec("hotc_resilience_events_total",
			"Resilience events on the request path, by kind.",
			"kind"),
		breakerState: reg.GaugeVec("hotc_breaker_state",
			"Per-runtime-key circuit breaker state (0 closed, 1 open, 2 half-open).",
			"key"),
		fns:  make(map[string]*fnHandles),
		keys: make(map[string]*keyHandles),
	}
	ins.startsWarm = ins.starts.With("warm")
	ins.startsCold = ins.starts.With("cold")
	g.obs = ins
}

// Trace attaches a span tracer: every completed request (success or
// failure) is recorded as an obs.Span over the §III.A timestamps.
func (g *Gateway) Trace(t *obs.Tracer) { g.tracer = t }

// setBreakerGauge reflects a breaker transition into the state gauge.
func (g *Gateway) setBreakerGauge(key string, brk *Breaker) {
	if g.obs == nil || brk == nil {
		return
	}
	g.obs.forKey(key).breakerState.Set(float64(brk.State(g.sched.Now())))
}

// record emits the per-request metrics and span once the outcome is
// known. Arrival is r.ts.GatewayIn (stamped at Handle).
func (g *Gateway) record(r *request, reused bool, err error) {
	name, ts := r.fn.Name, r.ts
	if g.obs != nil {
		h := g.obs.forFunction(name)
		if err != nil {
			h.reqErr.Inc()
		} else {
			h.reqOK.Inc()
			if reused {
				g.obs.startsWarm.Inc()
			} else {
				g.obs.startsCold.Inc()
			}
			h.latency.ObserveDuration(ts.Total())
			if ts.WatchdogIn > 0 {
				g.obs.forKey(r.key).acquire.ObserveDuration(ts.WatchdogIn - r.admitAt)
			}
		}
	}
	if g.tracer != nil {
		s := obs.Span{
			ID:          g.tracer.NextID(),
			Function:    name,
			Key:         r.key,
			Round:       r.req.Round,
			Reused:      reused,
			ClientIn:    time.Duration(ts.GatewayIn),
			GatewayIn:   time.Duration(r.admitAt),
			WatchdogIn:  time.Duration(ts.WatchdogIn),
			FuncStart:   time.Duration(ts.FuncStart),
			FuncDone:    time.Duration(ts.FuncStop),
			WatchdogOut: time.Duration(ts.WatchdogOut),
			ClientOut:   time.Duration(ts.ClientOut),
		}
		if err != nil {
			s.Err = err.Error()
		}
		for _, f := range r.faults {
			s.Events = append(s.Events, obs.SpanEvent{At: f.At, Kind: f.Kind, Detail: f.Detail})
		}
		g.tracer.Record(s)
	}
}
