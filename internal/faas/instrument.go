package faas

import (
	"time"

	"hotc/internal/kernel"
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

// instruments are the gateway's books: every request outcome and every
// resilience event is counted here, once, and ResilienceCounters reads
// them back. A function's handles are resolved once, into its
// deployment record, and a runtime key's into its key record, so
// steady-state recording is vec-lookup free.
type instruments struct {
	kernel.RequestBooks
	reg       *obs.Registry
	queueWait *obs.HistogramVec       // hotc_gateway_queue_wait_ms{function}
	events    map[string]*obs.Counter // hotc_resilience_events_total{kind}, one child per resilienceKinds row
}

// fnMetrics returns a deployment's handles, resolving them on first use.
func (g *Gateway) fnMetrics(d *deployment) *fnHandles {
	if d.metrics == nil {
		ins, name := g.obs, d.fn.Name
		d.metrics = &fnHandles{
			reqOK:     ins.Requests.With(name, "ok"),
			reqErr:    ins.Requests.With(name, "error"),
			latency:   ins.Latency.With(name),
			queueWait: ins.queueWait.With(name),
		}
	}
	return d.metrics
}

// newInstruments registers the gateway's metric families on the
// registry.
func newInstruments(reg *obs.Registry) *instruments {
	ins := &instruments{
		RequestBooks: kernel.NewRequestBooks(reg),
		reg:          reg,
		queueWait: reg.HistogramVec("hotc_gateway_queue_wait_ms",
			"Time spent queued behind the per-function concurrency cap, in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		events: make(map[string]*obs.Counter, len(resilienceKinds)),
	}
	for _, k := range resilienceKinds {
		ins.events[k.kind] = ins.Events.With(k.kind)
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
func (g *Gateway) setBreakerGauge(k *runtimeKey, brk *kernel.Breaker) {
	if brk == nil {
		return
	}
	if k.breakerState == nil {
		k.breakerState = g.obs.Breaker.With(k.key)
	}
	k.breakerState.Set(float64(brk.State(g.sched.Now())))
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
			g.obs.StartsWarm.Inc()
		} else {
			g.obs.StartsCold.Inc()
		}
		h.latency.ObserveDuration(ts.Total())
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
