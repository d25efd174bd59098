package live

import (
	"context"
	"time"

	"hotc/internal/image"
	"hotc/internal/prefork"
)

// BootHeader reports how the serving instance came to exist:
// "rented" (an idle container leased from another function and
// re-specialized), "generic" (specialized from the pre-forked pool) or
// "cold" (full boot). Warm reuses carry only X-Hotc-Reused: true — the
// hot path stays header- and allocation-free.
const BootHeader = "X-Hotc-Boot"

// coldPath is the gateway's fast-cold-path state: the image catalog
// and content-addressed layer cache that let functions sharing base
// layers skip the pull/unpack phase, and the pre-forked generic
// watchdog pool that pre-pays the function-agnostic share of boot. New
// fills all three; what the boot paths count lives in the
// hotc_coldpath_* families, which ColdPathStats reads back.
type coldPath struct {
	// registry resolves Function.Image references.
	registry *image.Registry
	// cache is the host-local layer store. A cold boot admits its
	// image's layers and pays the pull phase only for the megabytes
	// that were actually missing — the admit is one atomic
	// check-and-admit, so concurrent boots of overlapping images each
	// pull only the layers they were first to admit. nil = no cache
	// (PoolConfig.DisableLayerCache).
	cache *image.Cache
	// pool is the generic watchdog pool; nil = prefork off.
	pool *prefork.Pool
}

// pay is every gateway's sleep, the context-aware stand-in for
// time.Sleep: nil once d has passed, ctx's error as soon as ctx is done
// (at once when it already is, so an abandoned request starts no boot).
func pay(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// bootGeneric boots one generic watchdog for the pool, paying the
// generic share of cold start (pre-baked image create + runtime init)
// here — on a refill goroutine, under the gateway's lifetime — instead
// of on some future request.
func (g *Gateway) bootGeneric() (*prefork.Watchdog, error) {
	wd, err := prefork.Start(g.watchdogServeError)
	if err != nil {
		return nil, err
	}
	if err := g.sleep(g.life, g.cfg.PreforkBoot); err != nil {
		wd.Stop()
		return nil, err
	}
	return wd, nil
}

// bootMode classifies how a request's instance came to exist.
type bootMode uint8

const (
	// bootWarm reused an idle instance from the warm pool.
	bootWarm bootMode = iota
	// bootRented leased an idle instance from another function: volume
	// wipe + re-specialization + app init (plus any image-layer delta).
	bootRented
	// bootGeneric specialized a pre-forked generic watchdog.
	bootGeneric
	// bootCold paid the full boot: pull + runtime init + app init.
	bootCold
)

// String names the mode for the X-Hotc-Boot header (constant strings:
// no allocation).
func (m bootMode) String() string {
	switch m {
	case bootWarm:
		return "warm"
	case bootRented:
		return "rented"
	case bootGeneric:
		return "generic"
	default:
		return "cold"
	}
}

// bootInfo reports what one boot actually paid. Passed by value; it
// never escapes on the warm path.
type bootInfo struct {
	mode bootMode
	// pull, runtime and app are the phase delays actually slept (pull
	// already cache-scaled; runtime is zero on a generic handoff).
	pull, runtime, app time.Duration
	// wipe is the volume-cleanup delay a rented boot paid before
	// re-specialization (zero on every other mode).
	wipe time.Duration
	// skippedMB is the image download avoided by layer-cache hits.
	skippedMB float64
}

// bootPhases is one function's resolved phase split plus its image,
// if any.
type bootPhases struct {
	pull, runtime, app time.Duration
	im                 image.Image
	hasImage           bool
}

// phasesFor resolves a function's boot phases: explicit fields win;
// otherwise ColdStart is split by the configured fractions, with the
// remainder assigned to app init so the three phases always sum to
// exactly ColdStart (an unconfigured gateway boots in the same total
// time as the old monolithic sleep).
func (g *Gateway) phasesFor(fn Function) bootPhases {
	var ph bootPhases
	if fn.Pull > 0 || fn.RuntimeInit > 0 || fn.AppInit > 0 {
		ph.pull, ph.runtime, ph.app = fn.Pull, fn.RuntimeInit, fn.AppInit
	} else {
		cs := fn.ColdStart
		ph.pull = time.Duration(g.cfg.BootPullFrac * float64(cs))
		ph.runtime = time.Duration(g.cfg.BootRuntimeFrac * float64(cs))
		ph.app = cs - ph.pull - ph.runtime
	}
	if fn.Image != "" {
		if im, err := g.cold.registry.Lookup(fn.Image); err == nil {
			ph.im, ph.hasImage = im, true
		}
	}
	return ph
}

// pullCost resolves the pull/unpack delay for one boot. With an image
// and a layer cache, the image's layers are admitted and only the
// megabytes actually missing are paid for, pro-rata of the phase
// delay; the rest is the cache hit the paper's Fig. 2 layer-sharing
// study predicts. Admit is a single locked check-and-admit, so two
// concurrent boots of overlapping images never both pay for a shared
// layer.
func (g *Gateway) pullCost(ph bootPhases) (time.Duration, float64) {
	if !ph.hasImage || g.cold.cache == nil {
		return ph.pull, 0
	}
	total := ph.im.SizeMB()
	if total <= 0 {
		return 0, 0
	}
	added := g.cold.cache.Admit(ph.im)
	skipped := total - added
	return time.Duration(float64(ph.pull) * added / total), skipped
}

// bootInstance is the cold ladder below renting, shared by requests and
// controller prewarms: a generic handoff when the pre-forked pool has
// an instance ready, else a full cold boot. Either way the pool is
// asked to refill — a mutex and goroutine spawns only, never a boot on
// this goroutine.
func (g *Gateway) bootInstance(ctx context.Context, fn Function) (*instance, bootInfo, error) {
	var from bootSource
	if pool := g.cold.pool; pool != nil {
		from.generic = pool.TryAcquire()
		pool.Refill()
	}
	return g.boot(ctx, fn, from)
}

// bootSource is what a boot starts from: nothing (a full cold boot), a
// generic pre-forked watchdog, or another function's idle instance.
type bootSource struct {
	generic *prefork.Watchdog
	lent    *instance
}

// boot is the one way an instance comes to exist. The phase table:
//
//	full cold  pull                         + runtime init + app init
//	generic    pull, when fn has an image                  + app init
//	rented     wipe, pull when the lender's image differs  + app init
//
// Pull is cache-scaled (pullCost); a generic pre-paid its runtime share,
// a lent container has runtime and layers in place. Every phase is paid
// through g.sleep under ctx: a boot abandoned mid-flight returns ctx's
// error with its watchdog stopped — a lent container included, half-wiped
// or wiped. It was tainted when taken, so it is destroyed, never handed
// back.
func (g *Gateway) boot(ctx context.Context, fn Function, from bootSource) (*instance, bootInfo, error) {
	ph := g.phasesFor(fn)
	info := bootInfo{mode: bootCold, runtime: ph.runtime, app: ph.app}
	wd, conn, pull := from.generic, (*hop)(nil), true
	switch {
	case from.lent != nil:
		info.mode, info.runtime, info.wipe = bootRented, 0, g.cfg.ShareWipe
		wd, conn, pull = from.lent.wd, from.lent.hop, fn.Image != from.lent.fn.Image
		from.lent.hop = nil // the connection moves with the watchdog
	case wd != nil:
		info.mode, info.runtime, pull = bootGeneric, 0, ph.hasImage
	default:
		var err error
		if wd, err = prefork.Start(g.watchdogServeError); err != nil {
			return nil, bootInfo{}, err
		}
	}
	err := g.sleep(ctx, info.wipe)
	if err == nil {
		wd.Specialize(watchdogHandler(fn, g.cfg.MaxBodyBytes))
		if pull {
			info.pull, info.skippedMB = g.pullCost(ph)
		}
		err = g.sleep(ctx, info.pull+info.runtime+info.app)
	}
	var inst *instance
	if err == nil {
		g.observeBoot(info)
		inst, err = g.newInstance(ctx, fn, wd, conn)
	}
	if err != nil {
		if conn != nil {
			conn.close() // before the watchdog: its shutdown waits on idle connections
		}
		wd.Stop()
	}
	return inst, info, err
}

// observeBoot feeds one boot's phase accounting into the
// hotc_coldpath_* and hotc_share_boot_phase_ms families.
func (g *Gateway) observeBoot(info bootInfo) {
	ins := g.obs
	if info.skippedMB > 0 {
		ins.coldSkippedMB.Add(info.skippedMB)
	}
	switch info.mode {
	case bootRented:
		// Rented boots have their own phase family (wipe has no
		// cold-boot analogue) and stay out of hotc_coldpath_phase_ms.
		ins.coldBootsRented.Inc()
		ins.sharePhaseWipe.ObserveDuration(info.wipe)
		ins.sharePhasePull.ObserveDuration(info.pull)
		ins.sharePhaseApp.ObserveDuration(info.app)
		return
	case bootGeneric:
		ins.coldBootsGeneric.Inc()
	case bootCold:
		ins.coldBootsFull.Inc()
		ins.coldPhaseRuntime.ObserveDuration(info.runtime)
	}
	// Pull is observed on every boot: a zero is a layer-cache hit, the
	// exact signal the phase histogram exists to show.
	ins.coldPhasePull.ObserveDuration(info.pull)
	ins.coldPhaseApp.ObserveDuration(info.app)
}

// watchdogServeError records a watchdog accept loop dying with an
// unexpected error as a resilience event (watchdog-serve-error), which
// the stats surface reports as watchdog.serve_errors.
func (g *Gateway) watchdogServeError(err error) {
	g.event("watchdog-serve-error")
}

// refillPrefork tops the generic pool up (no-op without prefork). The
// controller calls it each tick so the pool recovers from bursts even
// when no further requests arrive; tests call it to prefill
// deterministically.
func (g *Gateway) refillPrefork() {
	if g.cold.pool != nil {
		g.cold.pool.Refill()
	}
}

// ColdPathStats snapshots the fast cold path's accounting.
type ColdPathStats struct {
	// Prefork reports whether the generic pool is armed.
	Prefork bool `json:"prefork"`
	// GenericIdle and GenericBooting are the pool's current occupancy.
	GenericIdle    int `json:"genericIdle"`
	GenericBooting int `json:"genericBooting"`
	// RefillBoots counts completed generic boots over the gateway's
	// lifetime; GenericReaped counts generics stopped by memory-budget
	// pressure.
	RefillBoots   uint64 `json:"refillBoots"`
	GenericReaped uint64 `json:"genericReaped"`
	// PullSkippedMB is the image download avoided by layer-cache hits;
	// CacheMB is the layer store's current size.
	PullSkippedMB float64 `json:"pullSkippedMB"`
	CacheMB       float64 `json:"cacheMB"`
}

// ColdPathStats reports the cold-path accounting.
func (g *Gateway) ColdPathStats() ColdPathStats {
	st := ColdPathStats{
		RefillBoots:   uint64(g.obs.coldRefills.Value()),
		GenericReaped: uint64(g.obs.coldReaped.Value()),
		PullSkippedMB: g.obs.coldSkippedMB.Value(),
	}
	if g.cold.pool != nil {
		st.Prefork = true
		st.GenericIdle = g.cold.pool.Idle()
		st.GenericBooting = g.cold.pool.Booting()
	}
	if g.cold.cache != nil {
		st.CacheMB = g.cold.cache.SizeMB()
	}
	return st
}
