package live

import (
	"context"
	"fmt"
	"net"
	"time"

	"hotc/internal/image"
	"hotc/internal/obs"
	"hotc/internal/predictor"
	"hotc/internal/prefork"
	"hotc/internal/sharing"
)

// PoolConfig is the one and only configuration of the live stack: the
// CLIs fill it from their flags, New resolves its defaults once, and
// the gateway keeps the resolved copy for its whole life. The zero
// value is a working gateway: warm reuse, tracing and the layer cache
// on; control, breaker, admission, prefork, sharing and SLOs off.
type PoolConfig struct {
	// IdleTTL stops instances idle longer than this (0 = keep forever)
	// — the keep-alive enforced by the gateway's janitor.
	IdleTTL time.Duration
	// MaxIdlePerFunction caps warm instances per function (0 = no
	// cap), enforced continuously — at release time, at prewarm time
	// and by the janitor — with oldest-first eviction.
	MaxIdlePerFunction int
	// ReapInterval is how often the janitor scans (default 1s). The
	// janitor runs when IdleTTL or MemoryBudget is set.
	ReapInterval time.Duration
	// ControlInterval is the adaptive controller's period (default 2s):
	// each tick observes the interval's peak concurrent demand,
	// forecasts the next interval and resizes the warm pool towards it.
	ControlInterval time.Duration
	// NewPredictor arms adaptive live-container control: each function
	// gets its own demand predictor, and the control cycle prewarms or
	// retires its warm instances towards the forecast every tick. nil
	// disables prediction; the janitor and warm cap stay active. Use
	// PredictorFactory to resolve names.
	NewPredictor func() predictor.Predictor
	// Headroom is added to every forecast before provisioning, as a
	// fraction (0.1 = +10%). Default 0.
	Headroom float64
	// BreakerThreshold arms the per-function circuit breaker: after
	// this many consecutive boot/proxy failures requests fast-fail with
	// 503 until the open window elapses. 0 disables breaking.
	BreakerThreshold int
	// BreakerOpenFor is the open window before a half-open probe
	// (default 30s when a threshold is set).
	BreakerOpenFor time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// daemon mux. Off by default: profiling endpoints expose internals
	// and should be opted into.
	EnablePprof bool
	// MaxBodyBytes bounds request bodies at the gateway and every
	// watchdog (0 = unlimited): oversized requests get HTTP 413
	// instead of ballooning a watchdog's memory.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently executing requests per function;
	// past it arrivals wait in the admission queue. 0 disables
	// admission control: no queue, no caps (deadlines still apply).
	MaxInFlight int
	// QueueDepth caps waiting requests per tenant per function; past
	// it arrivals get 429 + Retry-After.
	QueueDepth int
	// DefaultDeadline is applied to requests without an explicit
	// X-Hotc-Deadline-Ms header (0 = none): queued requests past their
	// deadline are shed, in-flight backend work is canceled at it.
	DefaultDeadline time.Duration
	// TenantWeights sets admission fair-dispatch quanta per tenant
	// (unlisted tenants weigh 1).
	TenantWeights map[string]int
	// MemoryBudget bounds estimated warm-instance memory across all
	// functions, in bytes (0 = unlimited); the janitor reclaims from
	// the biggest holders first, oldest instances first, when exceeded.
	MemoryBudget int64
	// InstanceMemBytes overrides the per-instance estimate backing the
	// budget (default 64 MiB, the order of a small language runtime's
	// RSS).
	InstanceMemBytes int64
	// DisableTracing turns live request tracing off. Tracing is on by
	// default: its sampled-out path costs a handful of atomics per
	// request and nothing on the pool hot path.
	DisableTracing bool
	// TraceCapacity sizes the span ring behind /system/trace (default
	// 2048).
	TraceCapacity int
	// TraceSampleRate is the probabilistic keep rate for unremarkable
	// successful spans (0 = the 1% default; negative = keep only
	// errors, sheds, cold starts and slow requests).
	TraceSampleRate float64
	// TraceSlowThreshold always keeps spans at or above this latency
	// (0 = the 500ms default; negative disables the slow rule).
	TraceSlowThreshold time.Duration
	// SLOLatency arms the latency objective: a 2xx request slower than
	// this is a bad event against a p99 target (0 = objective off).
	SLOLatency time.Duration
	// SLOColdStartPct arms the cold-start objective: at most this
	// percentage of served requests may pay a cold start (0 = off).
	SLOColdStartPct float64
	// Prefork arms the generic pre-forked watchdog pool: cold starts
	// specialize an already-running generic instance and pay only the
	// function-specific share of boot (cache-scaled pull + app init).
	Prefork bool
	// PreforkSize is the generic pool's target (default 4).
	PreforkSize int
	// PreforkBoot is the delay one generic boot pays (the pre-baked
	// generic image's create + runtime init), always on a pool refill
	// goroutine, never on the request path (0 = instant).
	PreforkBoot time.Duration
	// DisableLayerCache turns the host layer cache off: every boot
	// with an Image pays its full pull phase. The cache is on by
	// default — sharing base layers is the point of image modelling.
	DisableLayerCache bool
	// LayerCacheCapMB bounds the layer cache with LRU eviction (0 =
	// unbounded).
	LayerCacheCapMB float64
	// BootPullFrac, BootRuntimeFrac and BootAppFrac split ColdStart
	// into the §III.B phases for functions without explicit ones. All
	// zero = the 55/30/15 defaults; otherwise normalized to sum to 1.
	BootPullFrac, BootRuntimeFrac, BootAppFrac float64
	// Share arms inter-function sharing: on a warm miss the gateway
	// leases an idle instance from another function — wipe its volume,
	// swap the watchdog handler, pay app init plus any image-layer
	// delta — before paying any boot.
	Share bool
	// SharePolicy selects the compatibility rule ("same-image", the
	// default, or "any"); see sharing.ParseMode. Validate rejects
	// unknown values; New falls back to same-image for callers that
	// skip it.
	SharePolicy string
	// ShareWipe is the volume-cleanup cost each lease pays (default
	// 5ms).
	ShareWipe time.Duration
	// ShareIdleGrace is the minimum idle age before an instance may be
	// lent (default 250ms; negative = none), so a lender's own next
	// request still finds its just-parked instance warm.
	ShareIdleGrace time.Duration
}

// withDefaults resolves every default of the live stack; no other
// function holds one. It is applied exactly once, by New: in the
// result a zero TraceSampleRate, TraceSlowThreshold or ShareIdleGrace
// means "none" (their "negative = none" inputs resolve to it), so a
// second pass would turn them back on.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.ReapInterval <= 0 {
		c.ReapInterval = time.Second
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 2 * time.Second
	}
	if c.InstanceMemBytes <= 0 {
		c.InstanceMemBytes = 64 << 20
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 2048
	}
	c.TraceSampleRate = zeroDefault(c.TraceSampleRate, 0.01)
	c.TraceSlowThreshold = zeroDefault(c.TraceSlowThreshold, 500*time.Millisecond)
	if c.PreforkSize <= 0 {
		c.PreforkSize = 4
	}
	// §III.B: image pull/unpack dominates container start time.
	p, r, a := c.BootPullFrac, c.BootRuntimeFrac, c.BootAppFrac
	if p <= 0 && r <= 0 && a <= 0 {
		p, r, a = 0.55, 0.30, 0.15
	}
	sum := p + r + a
	c.BootPullFrac, c.BootRuntimeFrac, c.BootAppFrac = p/sum, r/sum, a/sum
	if c.ShareWipe <= 0 {
		c.ShareWipe = 5 * time.Millisecond
	}
	c.ShareIdleGrace = zeroDefault(c.ShareIdleGrace, 250*time.Millisecond)
	return c
}

// zeroDefault resolves the "0 = default, negative = none" convention.
func zeroDefault[T ~int64 | ~float64](v, def T) T {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// Validate reports the first field New would have to guess about: an
// unknown share policy, or a negative size, count, duration or
// boot-split part. The error names the field. The CLIs call it before
// NewDaemon; TraceSampleRate, TraceSlowThreshold and ShareIdleGrace
// are not checked, negative being their "none".
func (c PoolConfig) Validate() error {
	if _, err := sharing.ParseMode(c.SharePolicy); err != nil {
		return fmt.Errorf("live: PoolConfig.SharePolicy: %w", err)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"IdleTTL", float64(c.IdleTTL)},
		{"MaxIdlePerFunction", float64(c.MaxIdlePerFunction)},
		{"ReapInterval", float64(c.ReapInterval)},
		{"ControlInterval", float64(c.ControlInterval)},
		{"Headroom", c.Headroom},
		{"BreakerThreshold", float64(c.BreakerThreshold)},
		{"BreakerOpenFor", float64(c.BreakerOpenFor)},
		{"MaxBodyBytes", float64(c.MaxBodyBytes)},
		{"MaxInFlight", float64(c.MaxInFlight)},
		{"QueueDepth", float64(c.QueueDepth)},
		{"DefaultDeadline", float64(c.DefaultDeadline)},
		{"MemoryBudget", float64(c.MemoryBudget)},
		{"InstanceMemBytes", float64(c.InstanceMemBytes)},
		{"TraceCapacity", float64(c.TraceCapacity)},
		{"SLOLatency", float64(c.SLOLatency)},
		{"SLOColdStartPct", c.SLOColdStartPct},
		{"PreforkSize", float64(c.PreforkSize)},
		{"PreforkBoot", float64(c.PreforkBoot)},
		{"LayerCacheCapMB", c.LayerCacheCapMB},
		{"BootPullFrac", c.BootPullFrac},
		{"BootRuntimeFrac", c.BootRuntimeFrac},
		{"BootAppFrac", c.BootAppFrac},
		{"ShareWipe", float64(c.ShareWipe)},
	} {
		if !(f.v >= 0) { // also catches NaN
			return fmt.Errorf("live: PoolConfig.%s: must not be negative", f.name)
		}
	}
	return nil
}

// New builds a gateway from its one configuration: defaults resolved,
// share policy parsed, and the metrics registry, tracer, SLO monitor,
// layer cache and generic pool constructed here — nothing about a
// gateway is configurable afterwards. Register functions, then Start.
func New(cfg PoolConfig) *Gateway {
	cfg = cfg.withDefaults()
	var dialer net.Dialer
	g := &Gateway{
		cfg:    cfg,
		reuse:  true,
		epoch:  time.Now(),
		nowFn:  time.Now,
		sleep:  pay,
		shards: make(map[string]*shard),
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", addr)
		},
		reg: obs.New(),
	}
	g.life, g.endLife = context.WithCancel(context.Background())
	g.obs = newInstruments(g.reg)
	// Unknown = same-image, the documented fallback.
	mode, _ := sharing.ParseMode(cfg.SharePolicy)
	g.share.policy = sharing.Policy{Mode: mode}
	g.cold.registry = image.StandardCatalog()
	if !cfg.DisableLayerCache {
		g.cold.cache = image.NewCache()
		if cfg.LayerCacheCapMB > 0 {
			g.cold.cache = image.NewCacheWithCap(cfg.LayerCacheCapMB)
		}
	}
	if !cfg.DisableTracing {
		g.trace = g.newTracing()
	}
	if cfg.SLOLatency > 0 || cfg.SLOColdStartPct > 0 {
		g.slo = obs.NewSLOMonitor(obs.SLOConfig{
			LatencyThreshold: cfg.SLOLatency,
			ColdStartBudget:  cfg.SLOColdStartPct / 100,
		})
		g.slo.Instrument(g.reg)
	}
	if cfg.Prefork {
		g.cold.pool = prefork.NewPool(prefork.Config{
			Size:   cfg.PreforkSize,
			Boot:   g.bootGeneric,
			OnBoot: g.obs.coldRefills.Inc,
			OnBootError: func(error) {
				if g.life.Err() != nil {
					return // a refill Stop abandoned, not a failure
				}
				g.event("prefork-boot-failure")
			},
			OnIdle: func(n int) { g.obs.coldGenericIdle.Set(float64(n)) },
		})
	}
	return g
}

// NewGateway is the zero-config form of New. reuse=false is the
// no-reuse baseline the examples compare against: every request boots
// and tears down its own instance (the default cold behaviour).
func NewGateway(reuse bool) *Gateway {
	g := New(PoolConfig{})
	g.reuse = reuse
	return g
}
