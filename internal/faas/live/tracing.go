package live

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hotc/internal/obs"
)

// The distributed-tracing request and response headers. The gateway
// accepts (or generates) a W3C traceparent, propagates it to the
// watchdog, and echoes the trace ID back to the client; the watchdog
// answers a traced request with its own §III.A workflow moments so the
// gateway can assemble the complete six-timestamp span.
const (
	// TraceparentHeader is the W3C Trace Context header
	// (https://www.w3.org/TR/trace-context/): version-00
	// "00-<trace-id>-<parent-id>-<flags>". Inbound it joins the request
	// to the caller's trace; the gateway forwards it to the watchdog
	// with its own span ID as parent-id.
	TraceparentHeader = "Traceparent"
	// TraceIDHeader echoes the request's 32-hex trace ID on every
	// response for a deployed function (including refusals), so clients
	// and load generators can correlate a response with its span in
	// /system/trace without parsing traceparent. The unknown-function
	// 404 keeps no span and echoes none.
	TraceIDHeader = "X-Hotc-Trace-Id"

	// The watchdog's span-timestamp response headers: §III.A moments
	// (2)..(5) as unix nanoseconds, returned only when the request
	// carried a traceparent. On the streaming path moments (4) and (5)
	// are not known before the response body starts, so they travel as
	// HTTP trailers under the same names.
	//
	// SpanWatchdogInHeader is moment (2): the request reached the
	// watchdog.
	SpanWatchdogInHeader = "X-Hotc-Span-Watchdog-In"
	// SpanFuncStartHeader is moment (3): the function began executing.
	SpanFuncStartHeader = "X-Hotc-Span-Func-Start"
	// SpanFuncDoneHeader is moment (4): the function finished.
	SpanFuncDoneHeader = "X-Hotc-Span-Func-Done"
	// SpanWatchdogOutHeader is moment (5): the response left the
	// watchdog.
	SpanWatchdogOutHeader = "X-Hotc-Span-Watchdog-Out"

	// spanHeaderPrefix marks the internal watchdog→gateway timestamp
	// headers, which are consumed at the gateway and never forwarded.
	spanHeaderPrefix = "X-Hotc-Span-"
)

// tracing is the gateway's live-tracing state (nil = tracing off, the
// request path pays one pointer test).
type tracing struct {
	ring    *obs.TraceRing
	sampler *obs.TailSampler
	ids     *obs.IDGen
	// epochNano anchors span timestamps: offsets from the gateway's
	// construction, so gateway stamps and watchdog unix-nano stamps
	// land on one time base.
	epochNano int64
	// nextID orders kept spans for human readers.
	nextID atomic.Uint64
}

// newTracing builds the tracer from the resolved config: errors, sheds,
// cold starts and requests at or above TraceSlowThreshold are always
// kept, other successes at TraceSampleRate.
func (g *Gateway) newTracing() *tracing {
	return &tracing{
		ring: obs.NewTraceRing(g.cfg.TraceCapacity),
		sampler: obs.NewTailSampler(obs.SamplerConfig{
			SlowThreshold: g.cfg.TraceSlowThreshold,
			SampleRate:    g.cfg.TraceSampleRate,
		}),
		ids:       obs.NewIDGen(0),
		epochNano: g.epoch.UnixNano(),
	}
}

// TraceSpans snapshots the span ring, newest first.
func (g *Gateway) TraceSpans() []obs.Span {
	if g.trace == nil {
		return nil
	}
	return g.trace.ring.Snapshot()
}

// TraceStats summarizes the tracing subsystem's accounting.
type TraceStats struct {
	// Enabled reports whether tracing is armed.
	Enabled bool `json:"enabled"`
	// Capacity is the span ring size.
	Capacity int `json:"capacity"`
	// Kept counts spans the tail sampler retained (including any later
	// dropped on ring contention).
	Kept uint64 `json:"kept"`
	// SampledOut counts completed requests whose spans the sampler
	// dropped.
	SampledOut uint64 `json:"sampledOut"`
	// RingDropped counts kept spans dropped because their ring slot
	// was busy.
	RingDropped uint64 `json:"ringDropped"`
}

// TraceStats reports the tracing subsystem's accounting (zero value
// when tracing is off).
func (g *Gateway) TraceStats() TraceStats {
	tr := g.trace
	if tr == nil {
		return TraceStats{}
	}
	return TraceStats{
		Enabled:     true,
		Capacity:    tr.ring.Capacity(),
		Kept:        tr.ring.Written() + tr.ring.Contended(),
		SampledOut:  uint64(g.obs.traceSampledOut.Value()),
		RingDropped: tr.ring.Contended(),
	}
}

// reqTrace is one request's tracing state, stack-allocated in handle:
// nothing here escapes to the heap unless the span is kept, which is
// what keeps the sampled-out path allocation-free.
type reqTrace struct {
	active    bool
	hasParent bool
	reused    bool
	// served reports the request reached a watchdog and got a response.
	served  bool
	nEvents int
	tc      obs.TraceContext
	parent  obs.TraceContext
	name    string
	tenant  string
	start   time.Time
	// clientIn and the watchdog moments are nanoseconds from the
	// gateway epoch (0 = never reached).
	clientIn                                     int64
	watchdogIn, funcStart, funcDone, watchdogOut int64
	queueWait                                    time.Duration
	events                                       [4]obs.SpanEvent
}

// begin stamps moment (1) and resolves the request's trace context:
// join the inbound traceparent when one parses, else start a new
// trace. The gateway's own span ID is always fresh.
func (tr *tracing) begin(rt *reqTrace, r *http.Request, start time.Time) {
	rt.active = true
	rt.clientIn = start.UnixNano() - tr.epochNano
	if parent, ok := obs.ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
		rt.parent = parent
		rt.hasParent = true
		rt.tc.TraceID = parent.TraceID
		rt.tc.Flags = parent.Flags | 1
	} else {
		rt.tc.TraceID = tr.ids.NewTraceID()
		rt.tc.Flags = 1
	}
	rt.tc.SpanID = tr.ids.NewSpanID()
}

// addEvent appends a span event (silently dropping past the fixed
// per-request budget: events annotate, they must not allocate).
func (rt *reqTrace) addEvent(at time.Duration, kind, detail string) {
	if rt.nEvents < len(rt.events) {
		rt.events[rt.nEvents] = obs.SpanEvent{At: at, Kind: kind, Detail: detail}
		rt.nEvents++
	}
}

// traceEvent records a resilience event on the request's span (no-op
// when tracing is off).
func (g *Gateway) traceEvent(rt *reqTrace, kind, detail string) {
	if !rt.active { // only tr.begin sets it
		return
	}
	rt.addEvent(time.Duration(time.Now().UnixNano()-g.trace.epochNano), kind, detail)
}

// noteWatchdog parses the watchdog's span-timestamp headers (or
// trailers) into the request state, filling only moments not already
// set — headers first, then trailers complete the streaming path.
func (tr *tracing) noteWatchdog(h http.Header, rt *reqTrace) {
	if rt.watchdogIn == 0 {
		rt.watchdogIn = tr.headerNanos(h, SpanWatchdogInHeader)
	}
	if rt.funcStart == 0 {
		rt.funcStart = tr.headerNanos(h, SpanFuncStartHeader)
	}
	if rt.funcDone == 0 {
		rt.funcDone = tr.headerNanos(h, SpanFuncDoneHeader)
	}
	if rt.watchdogOut == 0 {
		rt.watchdogOut = tr.headerNanos(h, SpanWatchdogOutHeader)
	}
}

// headerNanos converts one unix-nano timestamp header to an epoch
// offset (0 when absent or malformed).
func (tr *tracing) headerNanos(h http.Header, key string) int64 {
	v := h.Get(key)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= tr.epochNano {
		return 0
	}
	return n - tr.epochNano
}

// internalRespHeader reports response headers the gateway consumes
// itself and must not forward to clients: the watchdog's span
// timestamps and its trailer declaration.
func internalRespHeader(k string) bool {
	return k == "Trailer" || strings.HasPrefix(k, spanHeaderPrefix)
}

// finishRequest concludes a request's observability: feed the SLO
// monitor, assemble the span, let the tail sampler judge it, and (for
// keepers) commit it to the ring with its trace IDs and a latency
// exemplar. conclude calls it for every request; on the sampled-out
// path it touches only stack state and a handful of atomics — no locks,
// no allocation.
func (g *Gateway) finishRequest(s *shard, rt *reqTrace, status int, errMsg string) {
	if g.slo != nil {
		g.slo.Record(status, rt.served, rt.served && !rt.reused, time.Since(rt.start))
	}
	if !rt.active { // only tr.begin sets it
		return
	}
	tr := g.trace
	clientOut := time.Duration(time.Now().UnixNano() - tr.epochNano)
	sp := obs.Span{
		Function:    rt.name,
		Tenant:      rt.tenant,
		Reused:      rt.reused,
		Err:         errMsg,
		Status:      status,
		ClientIn:    time.Duration(rt.clientIn),
		GatewayIn:   time.Duration(rt.clientIn) + rt.queueWait,
		WatchdogIn:  time.Duration(rt.watchdogIn),
		FuncStart:   time.Duration(rt.funcStart),
		FuncDone:    time.Duration(rt.funcDone),
		WatchdogOut: time.Duration(rt.watchdogOut),
		ClientOut:   clientOut,
	}
	reason, keep := tr.sampler.Decide(&sp)
	if !keep {
		g.obs.traceSampledOut.Inc()
		return
	}
	// The span is a keeper: only now do the trace IDs materialize as
	// strings.
	sp.ID = int(tr.nextID.Add(1))
	sp.KeepReason = reason
	sp.TraceID = rt.tc.TraceIDString()
	sp.SpanID = rt.tc.SpanIDString()
	stored := tr.ring.Put(&sp, rt.events[:rt.nEvents])
	if c := g.obs.traceKept[reason]; c != nil {
		c.Inc()
	}
	if !stored {
		g.obs.traceRingFull.Inc()
	}
	// The latency histogram's bucket exemplar: this trace ID is the
	// "show me one" answer for its latency bucket.
	s.m.latency.SetExemplar(float64(sp.Total())/float64(time.Millisecond),
		sp.TraceID, rt.start.Add(sp.Total()))
}
