package kernel

import (
	"hotc/internal/obs"
)

// Books are the control loop's metric families, declared here and
// nowhere else: the simulated controller and the live gateway both
// count into them, so dashboards read either substrate.
type Books struct {
	demand   *obs.GaugeVec // hotc_ctl_demand{key}
	forecast *obs.GaugeVec // hotc_ctl_forecast{key}
	target   *obs.GaugeVec // hotc_ctl_target{key}
	prewarm  *obs.Counter  // hotc_ctl_prewarm_total
	retire   *obs.Counter  // hotc_ctl_retire_total
	ticks    *obs.Counter  // hotc_ctl_ticks_total
}

// NewBooks registers the control loop's metric families on reg.
func NewBooks(reg *obs.Registry) *Books {
	return &Books{
		demand: reg.GaugeVec("hotc_ctl_demand",
			"Observed peak concurrent demand per runtime key in the last control interval.",
			"key"),
		forecast: reg.GaugeVec("hotc_ctl_forecast",
			"Demand forecast per runtime key for the next control interval.",
			"key"),
		target: reg.GaugeVec("hotc_ctl_target",
			"Pool size target per runtime key after headroom, floors and hysteresis.",
			"key"),
		prewarm: reg.Counter("hotc_ctl_prewarm_total",
			"Containers the control loop asked the pool to pre-warm."),
		retire: reg.Counter("hotc_ctl_retire_total",
			"Containers the control loop retired on scale-down."),
		ticks: reg.Counter("hotc_ctl_ticks_total",
			"Control loop ticks executed."),
	}
}

// KeyBooks are one runtime key's control gauges, resolved once (see
// Books.For).
type KeyBooks struct {
	b                        *Books
	demand, forecast, target *obs.Gauge
}

// For resolves the key's control gauges. The series appear in the
// registry from then on.
func (b *Books) For(key string) *KeyBooks {
	return &KeyBooks{b: b, demand: b.demand.With(key), forecast: b.forecast.With(key), target: b.target.With(key)}
}

// Record books one decision of the key: the three gauges, and the boots
// and retirements it asked for.
func (k *KeyBooks) Record(d Decision) {
	k.demand.Set(d.Observed)
	k.forecast.Set(d.Input.Forecast)
	k.target.Set(float64(d.Target))
	k.b.prewarm.Add(float64(d.Boot))
	k.b.retire.Add(float64(d.Retire))
}

// Cycle counts one control cycle, however many keys it stepped.
func (b *Books) Cycle() { b.ticks.Inc() }

// RequestBooks are the request path's families. The simulated gateway
// and the live gateway both embed them in their instruments and resolve
// the children their own requests need.
type RequestBooks struct {
	Requests               *obs.CounterVec   // hotc_requests_total{function, outcome}
	Latency                *obs.HistogramVec // hotc_request_latency_ms{function}
	Events                 *obs.CounterVec   // hotc_resilience_events_total{kind}
	Breaker                *obs.GaugeVec     // hotc_breaker_state{key}
	StartsWarm, StartsCold *obs.Counter      // hotc_starts_total{mode}
}

// NewRequestBooks registers the request path's metric families on reg.
func NewRequestBooks(reg *obs.Registry) RequestBooks {
	starts := reg.CounterVec("hotc_starts_total",
		"Runtime starts behind served requests, by mode (warm = a live runtime reused, cold = fresh boot).",
		"mode")
	return RequestBooks{
		Requests: reg.CounterVec("hotc_requests_total",
			"Requests handled by the gateway, by function and outcome (ok|error|rejected|canceled).",
			"function", "outcome"),
		Latency: reg.HistogramVec("hotc_request_latency_ms",
			"End-to-end request latency at the gateway (client in to client out), in milliseconds.",
			obs.DefaultLatencyBucketsMS(), "function"),
		Events: reg.CounterVec("hotc_resilience_events_total",
			"Resilience events on the request path, by kind.",
			"kind"),
		Breaker: reg.GaugeVec("hotc_breaker_state",
			"Circuit breaker state per runtime key, a function on the live gateway (0 closed, 1 open, 2 half-open).",
			"key"),
		StartsWarm: starts.With("warm"),
		StartsCold: starts.With("cold"),
	}
}

// WireRefusals declares hotc_wire_refusals_total{role,reason} on reg and
// returns the refusal hook of a front door in role (gateway|router),
// which counts each head it refuses unserved, before any handler runs,
// under the reason hop.Server.OnRefusal names.
func WireRefusals(reg *obs.Registry, role string) func(reason string) {
	v := reg.CounterVec("hotc_wire_refusals_total",
		"Requests a front door refused unserved, before any handler ran, by role (gateway|router) and reason.",
		"role", "reason")
	return func(reason string) { v.With(role, reason).Inc() }
}

// WirePanics declares hotc_wire_panics_total{role} on reg and returns
// the panic hook of a server in role (gateway|router|watchdog), which
// counts each handler panic the server recovers (hop.Server.OnPanic).
// An in-process watchdog, which has no server, books its function's
// panics through the same hook.
func WirePanics(reg *obs.Registry, role string) func() {
	return reg.CounterVec("hotc_wire_panics_total",
		"Handler panics a server recovered, by role (gateway|router|watchdog).",
		"role").With(role).Inc
}

// WireBodyBytes declares hotc_wire_body_bytes_total{role,path} on reg
// and returns the body hook of the hop endpoints in role
// (gateway|router|watchdog), hop.Server.OnBody and hop.Conn.OnBody,
// which counts the body bytes they send by path: spliced, moved socket
// to socket in the kernel, or copied, written from user space.
func WireBodyBytes(reg *obs.Registry, role string) func(copied, spliced int64) {
	v := reg.CounterVec("hotc_wire_body_bytes_total",
		"Body bytes the hop sent, by role (gateway|router|watchdog) and path: spliced (socket to socket in the kernel) or copied (from user space).",
		"role", "path")
	copied, spliced := v.With(role, "copied"), v.With(role, "spliced")
	return func(c, s int64) {
		if c > 0 {
			copied.Add(float64(c))
		}
		if s > 0 {
			spliced.Add(float64(s))
		}
	}
}

// WireRedials declares hotc_wire_redials_total{role} on reg and returns
// the hook a proxy in role (gateway|router) calls each time it dials a
// connection anew because the one it held could not carry the next
// exchange: the gateway's instance connection it could not keep, the
// router's pooled connection the node had closed.
func WireRedials(reg *obs.Registry, role string) func() {
	return reg.CounterVec("hotc_wire_redials_total",
		"Connections a proxy dialed anew because the one it held could not carry the next exchange, by role (gateway|router).",
		"role").With(role).Inc
}

// The hotc_pool_retired_total{reason} values: why an idle runtime was
// stopped.
const (
	RetireScaleDown = "scale_down" // the controller's Retire
	RetireCap       = "cap"        // a release past the idle cap
	RetireBudget    = "budget"     // the memory budget's reclaim
	RetireRedeploy  = "redeploy"   // a redeploy drains the old version
	RetireExpired   = "expired"    // the keep-alive window ran out
)

// PoolBooks are the runtime pool's shared families: the simulated pool
// and the live gateway's warm lists both embed them.
type PoolBooks struct {
	Hits      *obs.CounterVec // hotc_pool_hits_total{kind}
	HitsExact *obs.Counter    // hotc_pool_hits_total{kind="exact"}
	Misses    *obs.Counter    // hotc_pool_misses_total
	Prewarmed *obs.Counter    // hotc_pool_prewarmed_total
	Retired   *obs.CounterVec // hotc_pool_retired_total{reason}
}

// NewPoolBooks registers the pool's shared metric families on reg.
func NewPoolBooks(reg *obs.Registry) PoolBooks {
	hits := reg.CounterVec("hotc_pool_hits_total",
		"Acquire calls served by a warm runtime, by match kind (exact|relaxed).",
		"kind")
	return PoolBooks{
		Hits:      hits,
		HitsExact: hits.With("exact"),
		Misses: reg.Counter("hotc_pool_misses_total",
			"Acquire calls that found no warm runtime and had to start one."),
		Prewarmed: reg.Counter("hotc_pool_prewarmed_total",
			"Runtimes the controller booted ahead of demand that joined the pool."),
		Retired: reg.CounterVec("hotc_pool_retired_total",
			"Idle runtimes stopped, by reason (scale_down|cap|budget|redeploy|expired).",
			"reason"),
	}
}
