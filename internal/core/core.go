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
	"fmt"
	"slices"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/metrics"
	"hotc/internal/pool"
	"hotc/internal/predictor"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

// Options configure the HotC middleware.
type Options struct {
	// Pool configures the runtime pool (caps, memory threshold,
	// relaxed matching).
	Pool pool.Options
	// Interval is the control-loop period; each tick observes demand
	// and adjusts the pool. Default 10s.
	Interval time.Duration
	// NewPredictor constructs the per-runtime-type demand predictor.
	// Default: the paper's combined ES+Markov with α = 0.8. Swapping
	// this in ablations gives ES-only or Markov-only control.
	NewPredictor func() predictor.Predictor
	// Headroom is added to every prediction before provisioning, as a
	// fraction (0.1 = +10%). Default 0.
	Headroom float64
	// MinWarm keeps at least this many containers per active runtime
	// type regardless of prediction. Default 0.
	MinWarm int
	// RetainIdle keeps one container alive for a runtime type that has
	// seen a request within this window, even when the prediction
	// rounds to zero — the pool's reuse-on-request behaviour for
	// low-rate traffic (Fig. 12a). The cap and memory threshold still
	// evict under pressure. Default 30 minutes.
	RetainIdle time.Duration
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
	if o.NewPredictor == nil {
		o.NewPredictor = func() predictor.Predictor { return predictor.Default() }
	}
	if o.RetainIdle <= 0 {
		o.RetainIdle = 30 * time.Minute
	}
	if o.ScaleDownFrac <= 0 || o.ScaleDownFrac > 1 {
		o.ScaleDownFrac = DefaultScaleDownFrac
	}
	return o
}

// keyState is the per-runtime-type controller state.
type keyState struct {
	spec container.Spec
	app  workload.App
	Demand

	everUsed    bool
	lastArrival simclock.Time

	// observed and predicted are the Fig. 10 evaluation series: per
	// interval, the real demand and the forecast HotC had made for it.
	observed  metrics.TimeSeries
	predicted metrics.TimeSeries
}

// HotC is the runtime-reusing middleware.
type HotC struct {
	pool  *pool.Pool
	sched *simclock.Scheduler
	opts  Options

	keys map[config.Key]*keyState
	// order is the keys sorted: ticks walk it, not the map, so jittered
	// replays draw their random numbers in the same order every run.
	order   []config.Key
	stopCtl func()

	// obs is the optional metric hookup (see Instrument); nil keeps the
	// seed behaviour.
	obs *instruments
}

// New builds HotC over a container engine.
func New(eng *container.Engine, opts Options) *HotC {
	if eng == nil {
		panic("core: New requires an engine")
	}
	o := opts.withDefaults()
	return &HotC{
		pool:  pool.New(eng, o.Pool),
		sched: eng.Scheduler(),
		opts:  o,
		keys:  make(map[config.Key]*keyState),
	}
}

// Pool exposes the underlying runtime pool (reports, tests).
func (h *HotC) Pool() *pool.Pool { return h.pool }

// Name implements faas.Provider.
func (h *HotC) Name() string { return "hotc" }

// Register tells HotC which application runs in a runtime type, so the
// controller can pre-warm it. The gateway calls this at deploy time.
func (h *HotC) Register(spec container.Spec, app workload.App) error {
	if err := app.Validate(); err != nil {
		return fmt.Errorf("core: registering %q: %w", app.Name, err)
	}
	h.state(spec, app)
	return nil
}

// state returns (creating if needed) the per-key state; the app of an
// existing key is left alone. Unregistered keys (Acquire passes a zero
// app) get tracked too, but cannot be pre-warmed until an app is known.
func (h *HotC) state(spec container.Spec, app workload.App) *keyState {
	key := spec.Key()
	st, ok := h.keys[key]
	if !ok {
		st = &keyState{spec: spec, app: app, Demand: Demand{Pred: h.opts.NewPredictor()}}
		h.keys[key] = st
		i, _ := slices.BinarySearch(h.order, key)
		h.order = slices.Insert(h.order, i, key)
	}
	return st
}

// Acquire implements faas.Provider via Algorithm 1.
func (h *HotC) Acquire(spec container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	st := h.state(spec, workload.App{})
	st.Begin()
	st.everUsed = true
	st.lastArrival = h.sched.Now()
	h.pool.Acquire(spec, func(c *container.Container, reused bool, delta config.Delta, err error) {
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
func (h *HotC) Complete(c *container.Container, spec container.Spec) {
	if st, ok := h.keys[spec.Key()]; ok {
		st.End()
	}
	h.pool.Release(c, nil)
}

// Discard implements faas.Discarder: a container whose execution
// failed is quarantined — stopped and never re-admitted to the pool —
// instead of being cleaned and reused (Algorithm 2 assumes the runtime
// is still trustworthy; a crashed one is not).
func (h *HotC) Discard(c *container.Container, spec container.Spec) {
	if st, ok := h.keys[spec.Key()]; ok {
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

// tick is one control interval: per runtime type, observe the demand,
// forecast the next interval, and resize the pool as Plan decides.
func (h *HotC) tick() {
	now := h.sched.Now()
	if h.obs != nil {
		h.obs.ticks.Inc()
	}
	for _, key := range h.order {
		st := h.keys[key]
		demand, predicted := st.Tick()
		st.observed.Add(now, demand)
		st.predicted.Add(now, predicted)

		target, boot, retire := Plan(PlanInput{
			Forecast: st.Forecast, Headroom: h.opts.Headroom,
			InFlight: st.InFlight, Live: h.pool.NumLive(key), Idle: h.pool.NumAvail(key),
			MinWarm:       h.opts.MinWarm,
			Retain:        st.everUsed && now-st.lastArrival <= h.opts.RetainIdle,
			ScaleDownFrac: h.opts.ScaleDownFrac,
		})
		if st.app.Name == "" {
			boot = 0 // nothing known to pre-warm the runtime with
		}
		h.pool.Prewarm(st.spec, st.app, boot, nil)
		retired := h.pool.Retire(key, retire)

		if h.obs != nil {
			k := string(key)
			h.obs.demand.With(k).Set(demand)
			h.obs.forecast.With(k).Set(st.Forecast)
			h.obs.target.With(k).Set(float64(target))
			h.obs.prewarm.Add(float64(boot))
			h.obs.retire.Add(float64(retired))
		}
	}
}

// PredictionTrace returns the observed and predicted demand series for
// a runtime type (Fig. 10). The boolean reports whether the key is
// known.
func (h *HotC) PredictionTrace(key config.Key) (observed, predicted *metrics.TimeSeries, ok bool) {
	st, found := h.keys[key]
	if !found {
		return nil, nil, false
	}
	return &st.observed, &st.predicted, true
}

// LiveByKey reports the current number of live containers per key.
func (h *HotC) LiveByKey() map[config.Key]int {
	out := make(map[config.Key]int, len(h.keys))
	for _, key := range h.order {
		if n := h.pool.NumLive(key); n > 0 {
			out[key] = n
		}
	}
	return out
}
