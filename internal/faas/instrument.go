package faas

import (
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

// instruments are the gateway's books: every request outcome and every
// resilience event is counted here, once, and ResilienceCounters reads
// them back. A function's handles are resolved once, into its
// deployment record, and a runtime key's into its key record, so
// steady-state recording is vec-lookup free.
type instruments struct {
	reg          *obs.Registry
	requests     *obs.CounterVec         // hotc_requests_total{function, outcome}
	latency      *obs.HistogramVec       // hotc_request_latency_ms{function}
	queueWait    *obs.HistogramVec       // hotc_gateway_queue_wait_ms{function}
	acquire      *obs.HistogramVec       // hotc_acquire_latency_ms{key}
	events       map[string]*obs.Counter // hotc_resilience_events_total{kind}, one child per resilienceKinds row
	breakerState *obs.GaugeVec           // hotc_breaker_state{key}

	startsWarm *obs.Counter // hotc_starts_total{mode="warm"}
	startsCold *obs.Counter // hotc_starts_total{mode="cold"}
}

// fnMetrics returns a deployment's handles, resolving them on first use.
func (g *Gateway) fnMetrics(d *deployment) *fnHandles {
	if d.metrics == nil {
		ins, name := g.obs, d.fn.Name
		d.metrics = &fnHandles{
			reqOK:     ins.requests.With(name, "ok"),
			reqErr:    ins.requests.With(name, "error"),
			latency:   ins.latency.With(name),
			queueWait: ins.queueWait.With(name),
		}
	}
	return d.metrics
}

// keyMetrics returns a runtime key's handles, resolving them on first
// use.
func (g *Gateway) keyMetrics(k *runtimeKey) *keyHandles {
	if k.metrics == nil {
		k.metrics = &keyHandles{
			acquire:      g.obs.acquire.With(k.key),
			breakerState: g.obs.breakerState.With(k.key),
		}
	}
	return k.metrics
}

// newInstruments registers the gateway's metric families on the
// registry.
func newInstruments(reg *obs.Registry) *instruments {
	ins := &instruments{
		reg: reg,
		requests: reg.CounterVec("hotc_requests_total",
			"Requests handled by the gateway, by function and outcome (ok|error).",
			"function", "outcome"),
		latency: reg.HistogramVec("hotc_request_latency_ms",
			"End-to-end request latency (client in to client out), in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		queueWait: reg.HistogramVec("hotc_gateway_queue_wait_ms",
			"Time spent queued behind the per-function concurrency cap, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		acquire: reg.HistogramVec("hotc_acquire_latency_ms",
			"Gateway-to-watchdog time: forwarding plus runtime acquisition with retries, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "key"),
		breakerState: reg.GaugeVec("hotc_breaker_state",
			"Per-runtime-key circuit breaker state (0 closed, 1 open, 2 half-open).",
			"key"),
		events: make(map[string]*obs.Counter, len(resilienceKinds)),
	}
	starts := reg.CounterVec("hotc_starts_total",
		"Container starts behind served requests, by mode (warm = live runtime reused, cold = fresh boot).",
		"mode")
	ins.startsWarm = starts.With("warm")
	ins.startsCold = starts.With("cold")
	events := reg.CounterVec("hotc_resilience_events_total",
		"Resilience events on the request path, by kind.",
		"kind")
	for _, k := range resilienceKinds {
		ins.events[k.kind] = events.With(k.kind)
	}
	return ins
}

// resilienceKinds is the one table of resilience events: each
// hotc_resilience_events_total{kind} and the ResilienceCounters key that
// reports the same count.
var resilienceKinds = [...]struct{ kind, key string }{
	{"acquire-retry", CounterAcquireRetries},
	{"exec-fallback", CounterExecFallbacks},
	{"quarantine", CounterQuarantines},
	{"breaker-open", CounterBreakerTrips},
	{"breaker-close", CounterBreakerCloses},
	{"degraded-cold", CounterDegradedRequests},
}

// ResilienceCounters reads the gateway's resilience books back from its
// registry: hotc_resilience_events_total under the keys of
// resilienceKinds, and CounterRequestsFailed, which is
// Σ hotc_requests_total{outcome="error"}. Counters with zero value are
// absent.
func (g *Gateway) ResilienceCounters() map[string]int {
	out := make(map[string]int)
	for _, k := range resilienceKinds {
		if n := int(g.obs.events[k.kind].Value()); n > 0 {
			out[k.key] = n
		}
	}
	failed := 0.0
	for _, f := range g.obs.reg.Snapshot() {
		if f.Name != "hotc_requests_total" {
			continue
		}
		for _, s := range f.Series {
			if s.LabelValues[1] == "error" {
				failed += s.Value
			}
		}
	}
	if failed > 0 {
		out[CounterRequestsFailed] = int(failed)
	}
	return out
}

// Trace attaches a span tracer: every completed request (success or
// failure) is recorded as an obs.Span over the §III.A timestamps.
func (g *Gateway) Trace(t *obs.Tracer) { g.tracer = t }

// setBreakerGauge reflects a breaker transition into the state gauge.
func (g *Gateway) setBreakerGauge(k *runtimeKey, brk *Breaker) {
	if brk == nil {
		return
	}
	g.keyMetrics(k).breakerState.Set(float64(brk.State(g.sched.Now())))
}

// record emits the per-request metrics and span once the outcome is
// known. Arrival is ts.GatewayIn (stamped at Handle).
func (g *Gateway) record(r *request, reused bool, err error) {
	name, ts := r.fn.Name, &r.res.Timestamps
	h := g.fnMetrics(r.d)
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
			g.keyMetrics(r.key).acquire.ObserveDuration(ts.WatchdogIn - r.admitAt)
		}
	}
	if g.tracer != nil {
		s := obs.Span{
			ID:          g.tracer.NextID(),
			Function:    name,
			Key:         r.key.key,
			Round:       r.res.Request.Round,
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
		for _, f := range r.res.Faults {
			s.Events = append(s.Events, obs.SpanEvent{At: f.At, Kind: f.Kind, Detail: f.Detail})
		}
		g.tracer.Record(s)
	}
}
