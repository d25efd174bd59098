package live

import (
	"context"
	"fmt"
	"net"
	"time"

	"hotc/internal/image"
	"hotc/internal/kernel"
	"hotc/internal/obs"
	"hotc/internal/predictor"
	"hotc/internal/prefork"
	"hotc/internal/sharing"
)

// The backends PoolConfig.Backend names: where a function runs.
const (
	// BackendInProcess runs a function on the front door's own goroutine,
	// against the client's connection: no watchdog socket, no hop
	// exchange, no relay. The default. It is not the paper's
	// architecture: a reused runtime taken to its limit.
	BackendInProcess = "in-process"
	// BackendSocket runs each instance's watchdog behind its own loopback
	// listener, reached over the instance's hop connection: the paper's
	// gateway→watchdog leg.
	BackendSocket = "socket"
)

// PoolConfig is the one and only configuration of the live stack: the
// CLIs fill it from their flags, New resolves its defaults once, and
// the gateway keeps the resolved copy for its whole life. The zero
// value is a working gateway: functions in process, warm reuse, tracing
// and the layer cache on; control, breaker, admission, prefork, sharing
// and SLOs off.
type PoolConfig struct {
	// Backend is where functions run: BackendInProcess (the default, "")
	// or BackendSocket.
	Backend string
	// IdleTTL stops instances idle longer than this, beyond what the
	// controller's forecast holds (0 = never) — the keep-alive enforced
	// by the gateway's janitor.
	IdleTTL time.Duration
	// MaxIdlePerFunction caps warm instances per function (0 = no
	// cap), enforced wherever an instance is parked: release evicts the
	// oldest, a prewarm refuses to park.
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
	// BreakerThreshold arms the per-function circuit breaker: after
	// this many consecutive boot/proxy failures requests fast-fail with
	// 503 until the open window elapses. 0 disables breaking.
	BreakerThreshold int
	// BreakerOpenFor is the open window before a half-open probe
	// (default 30s when a threshold is set).
	BreakerOpenFor time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// gateway's routes. Off by default: profiling endpoints expose internals
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
	// MemoryBudget bounds estimated warm-instance memory across all
	// functions, in bytes (0 = unlimited), at 64 MiB per instance; when
	// it is exceeded the janitor reclaims idle generics first, then the
	// longest-idle warm instances, whichever functions hold them.
	MemoryBudget int64
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
	if c.Backend == "" {
		c.Backend = BackendInProcess
	}
	if c.ReapInterval <= 0 {
		c.ReapInterval = time.Second
	}
	if c.ControlInterval <= 0 {
		c.ControlInterval = 2 * time.Second
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 2048
	}
	c.TraceSampleRate = zeroDefault(c.TraceSampleRate, 0.01)
	c.TraceSlowThreshold = zeroDefault(c.TraceSlowThreshold, 500*time.Millisecond)
	if c.PreforkSize <= 0 {
		c.PreforkSize = 4
	}
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
// unknown backend or share policy, or a negative size, count or duration. The
// error names the field. The CLIs call it before New;
// TraceSampleRate, TraceSlowThreshold and ShareIdleGrace are not
// checked, negative being their "none".
func (c PoolConfig) Validate() error {
	switch c.Backend {
	case "", BackendInProcess, BackendSocket:
	default:
		return fmt.Errorf("live: PoolConfig.Backend: unknown backend %q (want %s or %s)", c.Backend, BackendInProcess, BackendSocket)
	}
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
		{"BreakerThreshold", float64(c.BreakerThreshold)},
		{"BreakerOpenFor", float64(c.BreakerOpenFor)},
		{"MaxBodyBytes", float64(c.MaxBodyBytes)},
		{"MaxInFlight", float64(c.MaxInFlight)},
		{"QueueDepth", float64(c.QueueDepth)},
		{"DefaultDeadline", float64(c.DefaultDeadline)},
		{"MemoryBudget", float64(c.MemoryBudget)},
		{"TraceCapacity", float64(c.TraceCapacity)},
		{"SLOLatency", float64(c.SLOLatency)},
		{"SLOColdStartPct", c.SLOColdStartPct},
		{"PreforkSize", float64(c.PreforkSize)},
		{"PreforkBoot", float64(c.PreforkBoot)},
		{"ShareWipe", float64(c.ShareWipe)},
	} {
		if !(f.v >= 0) { // also catches NaN
			return fmt.Errorf("live: PoolConfig.%s: must not be negative", f.name)
		}
	}
	return nil
}

// New builds a gateway from its one configuration: defaults resolved,
// backend and share policy resolved, the clock resolved to the wall clock, and the
// metrics registry, tracer, SLO monitor, layer cache and generic pool
// constructed here — nothing about a gateway is configurable afterwards.
// Register functions (or Deploy them), then Start.
func New(cfg PoolConfig) *Gateway {
	cfg = cfg.withDefaults()
	var dialer net.Dialer
	g := &Gateway{
		cfg:    cfg,
		keep:   kernel.Fixed(cfg.IdleTTL),
		clock:  wallClock{},
		shards: make(map[string]*shard),
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", addr)
		},
		reg: obs.New(),
	}
	g.started = g.clock.Now()
	g.life, g.endLife = context.WithCancel(context.Background())
	g.obs = newInstruments(g.reg)
	g.backend = g.newBackend(cfg.Backend)
	// Unknown = same-image, the documented fallback.
	mode, _ := sharing.ParseMode(cfg.SharePolicy)
	g.sharePolicy = sharing.Policy{Mode: mode}
	g.cold.registry = image.StandardCatalog()
	if !cfg.DisableLayerCache {
		g.cold.cache = image.NewCache()
	}
	g.trace = g.newTracing()
	if cfg.SLOLatency > 0 || cfg.SLOColdStartPct > 0 {
		g.slo = obs.NewSLOMonitor(obs.SLOConfig{
			LatencyThreshold: cfg.SLOLatency,
			ColdStartBudget:  cfg.SLOColdStartPct / 100,
			Now:              func() time.Time { return g.clock.Now() },
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
