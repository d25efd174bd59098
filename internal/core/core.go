// Package core implements HotC itself (§IV): the middleware between
// clients and backend that maintains the live container runtime pool,
// reuses runtimes on request (Algorithm 1), cleans used containers
// back into the pool (Algorithm 2), and runs the adaptive live
// container control loop (Algorithm 3) that combines exponential
// smoothing with a Markov chain to pre-warm predicted demand and
// retire excess runtimes.
//
// HotC satisfies the faas.Provider interface, so the same gateway can
// run with HotC or any baseline policy.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/kernel"
	"hotc/internal/obs"
	"hotc/internal/pool"
	"hotc/internal/predictor"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

// Options configure the HotC middleware.
type Options struct {
	// Pool configures the runtime pool (caps, memory threshold,
	// relaxed matching). Its Metrics registry holds the controller's
	// books too; nil gives HotC a registry of its own.
	Pool pool.Options
	// Interval is the control-loop period; each tick observes demand
	// and adjusts the pool. Default 10s.
	Interval time.Duration
	// Headroom is added to every prediction before provisioning, as a
	// fraction (0.1 = +10%). Default 0.
	Headroom float64
	// ScaleDownFrac caps how much of a runtime type's pool may be
	// retired per control tick, as a fraction of its live containers
	// (hysteresis). Slow scale-down is what lets recurring bursts find
	// most of the previous burst's containers still warm (Fig. 14b);
	// the cap and memory threshold still bound total resource usage.
	// Default 0.25.
	ScaleDownFrac float64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	if o.ScaleDownFrac <= 0 || o.ScaleDownFrac > 1 {
		o.ScaleDownFrac = kernel.DefaultScaleDownFrac
	}
	if o.Pool.Metrics == nil {
		o.Pool.Metrics = obs.New()
	}
	return o
}

// keyState is the per-runtime-type controller state.
type keyState struct {
	spec  *container.Spec
	app   workload.App
	books *kernel.KeyBooks // nil until the first tick books the key
	kernel.Demand

	everUsed    bool
	lastArrival simclock.Time
}

// HotC is the runtime-reusing middleware.
type HotC struct {
	pool  *pool.Pool
	eng   *container.Engine
	sched *simclock.Scheduler
	opts  Options

	// keys holds each runtime type's state under the engine's key handle
	// (container.KeyID); nil for a key HotC has not seen.
	keys []*keyState
	// order is the same states sorted by key: ticks walk it, so jittered
	// replays draw their random numbers in the same order every run.
	order   []*keyState
	stopCtl func()

	// books are the controller's, on the pool's registry.
	books *kernel.Books
	// retain keeps one container alive for a runtime type that has seen
	// a request within its window, even when the prediction rounds to
	// zero — the pool's reuse-on-request behaviour for low-rate traffic
	// (Fig. 12a). The cap and memory threshold still evict under
	// pressure.
	retain kernel.Fixed
}

// New builds HotC over a container engine.
func New(eng *container.Engine, opts Options) *HotC {
	if eng == nil {
		panic("core: New requires an engine")
	}
	o := opts.withDefaults()
	return &HotC{
		pool:   pool.New(eng, o.Pool),
		eng:    eng,
		sched:  eng.Scheduler(),
		opts:   o,
		books:  kernel.NewBooks(o.Pool.Metrics),
		retain: kernel.Fixed(30 * time.Minute),
	}
}

// Pool exposes the underlying runtime pool (reports, tests).
func (h *HotC) Pool() *pool.Pool { return h.pool }

// Name implements faas.Provider.
func (h *HotC) Name() string { return "hotc" }

// Register tells HotC which application runs in a runtime type, so the
// controller can pre-warm it. The gateway calls this at deploy time.
func (h *HotC) Register(spec *container.Spec, app workload.App) error {
	if err := app.Validate(); err != nil {
		return fmt.Errorf("core: registering %q: %w", app.Name, err)
	}
	h.state(spec, &app)
	return nil
}

// state returns (creating if needed) the spec's per-key state; the app
// of an existing key is left alone. Acquire passes no app: a key it
// sees first is tracked too, but cannot be pre-warmed.
func (h *HotC) state(spec *container.Spec, app *workload.App) *keyState {
	if st := h.lookup(spec); st != nil {
		return st
	}
	id := h.eng.KeyOf(spec)
	for int(id) >= len(h.keys) {
		h.keys = append(h.keys, nil)
	}
	// Each runtime type forecasts its demand with the paper's combined
	// ES+Markov predictor, α = 0.8.
	st := &keyState{spec: spec, Demand: kernel.Demand{Pred: predictor.Default()}}
	if app != nil {
		st.app = *app
	}
	h.keys[id] = st
	key := spec.Key()
	i, _ := slices.BinarySearchFunc(h.order, key, func(s *keyState, k config.Key) int { return cmp.Compare(s.spec.Key(), k) })
	h.order = slices.Insert(h.order, i, st)
	return st
}

// lookup returns the spec's per-key state, nil for a key HotC has not
// seen.
func (h *HotC) lookup(spec *container.Spec) *keyState {
	if id := h.eng.KeyOf(spec); int(id) < len(h.keys) {
		return h.keys[id]
	}
	return nil
}

// Acquire implements faas.Provider via Algorithm 1. A hit is served
// synchronously, by the pool's reuse branch.
func (h *HotC) Acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	st := h.state(spec, nil)
	st.Begin()
	st.everUsed = true
	st.lastArrival = h.sched.Now()
	if c, delta, err := h.pool.Reuse(spec); c != nil || err != nil {
		if err != nil {
			st.End()
		}
		done(c, c != nil, delta, err)
		return
	}
	h.pool.Fresh(spec, func(c *container.Container, reused bool, delta config.Delta, err error) {
		if err != nil {
			st.End()
			done(nil, false, config.Delta{}, err)
			return
		}
		done(c, reused, delta, nil)
	})
}

// Complete implements faas.Provider via Algorithm 2: clean the used
// container and return it to the pool.
func (h *HotC) Complete(c *container.Container, spec *container.Spec) {
	if st := h.lookup(spec); st != nil {
		st.End()
	}
	h.pool.Release(c, nil)
}

// Discard implements faas.Provider: a container whose execution
// failed is quarantined — stopped and never re-admitted to the pool —
// instead of being cleaned and reused (Algorithm 2 assumes the runtime
// is still trustworthy; a crashed one is not).
func (h *HotC) Discard(c *container.Container, spec *container.Spec) {
	if st := h.lookup(spec); st != nil {
		st.End()
	}
	h.pool.Quarantine(c)
}

// Start launches the adaptive control loop (Algorithm 3). Stop halts
// it.
func (h *HotC) Start() {
	if h.stopCtl != nil {
		panic("core: controller already running")
	}
	h.stopCtl = h.sched.Every(h.opts.Interval, h.tick)
}

// Stop halts the control loop. Safe to call when not running.
func (h *HotC) Stop() {
	if h.stopCtl != nil {
		h.stopCtl()
		h.stopCtl = nil
	}
}

// tick is one control interval: per runtime type, Step observes the
// demand, forecasts the next interval and plans; tick applies the plan
// to the pool and books it.
func (h *HotC) tick() {
	now := h.sched.Now()
	h.books.Cycle()
	for _, st := range h.order {
		live, idle := h.pool.Occupancy(st.spec)
		d := st.Step(kernel.PlanInput{
			Headroom: h.opts.Headroom,
			InFlight: st.InFlight, Live: live, Idle: idle,
			Retain:        st.everUsed && !kernel.Expired(now-st.lastArrival, h.retain.Window(string(st.spec.Key()))),
			ScaleDownFrac: h.opts.ScaleDownFrac,
		})
		if st.app.Name != "" { // else nothing is known to pre-warm the runtime with
			h.pool.Prewarm(st.spec, st.app, d.Boot, nil)
		}
		h.pool.Retire(st.spec, d.Retire)
		if st.books == nil {
			st.books = h.books.For(string(st.spec.Key()))
		}
		st.books.Record(d)
	}
}

// Trail returns a runtime type's last decisions, oldest first (Fig. 10's
// observed and predicted demand among them). The boolean reports
// whether the key is known.
func (h *HotC) Trail(key config.Key) ([]kernel.Decision, bool) {
	id, ok := h.eng.LookupKey(key)
	if !ok || int(id) >= len(h.keys) || h.keys[id] == nil {
		return nil, false
	}
	return h.keys[id].Trail(), true
}
