package live

import (
	"fmt"
	"time"

	"hotc/internal/core"
	"hotc/internal/predictor"
	"hotc/internal/sharing"
)

// ctlTraceCap bounds the per-function observed/predicted series kept
// for the prediction-trace endpoint.
const ctlTraceCap = 128

// PredictorFactory resolves a predictor name — the hotcd -predictor
// flag values — to a constructor: "es", "markov", "es+markov" (the
// paper's combined predictor), or "off"/"" for no prediction.
func PredictorFactory(name string) (func() predictor.Predictor, error) {
	switch name {
	case "", "off":
		return nil, nil
	case "es":
		return func() predictor.Predictor { return predictor.NewES(predictor.DefaultAlpha) }, nil
	case "markov":
		return func() predictor.Predictor { return predictor.NewMarkov(predictor.DefaultStates) }, nil
	case "es+markov":
		return func() predictor.Predictor { return predictor.Default() }, nil
	default:
		return nil, fmt.Errorf("live: unknown predictor %q (want es|markov|es+markov|off)", name)
	}
}

// fnControl is the per-function controller state, embedded in the
// function's shard and guarded by the shard mutex: the demand
// accounting the simulated controller also uses (Pred nil = no
// prediction) plus the live substrate's Fig. 10 evaluation series.
type fnControl struct {
	core.Demand

	booting  int       // prewarm boots in flight (counted as live)
	lastDone time.Time // when release last pooled an instance; zero = never

	ticks     int
	observed  []float64
	predicted []float64

	// share classifies the function as lender/renter/neutral from the
	// same demand history (see sharing.Classifier); only fed when the
	// gateway has sharing enabled. Zero value = neutral, which is what
	// an unclassified function must be.
	share sharing.Classifier
}

// startCycle launches the control cycle, the gateway's one background
// goroutine, when the config arms a stage of it: the controller with a
// predictor, the janitor — which owns keep-alive expiry AND
// memory-budget reclaim — with either policy.
func (g *Gateway) startCycle() {
	control := g.cfg.NewPredictor != nil
	janitor := g.cfg.IdleTTL > 0 || g.cfg.MemoryBudget > 0
	g.smu.Lock()
	run := (control || janitor) && !g.stopped.Load()
	if run {
		g.wg.Add(1)
	}
	g.smu.Unlock()
	if run {
		go g.cycle(control, janitor)
	}
	// Prefill the generic pre-forked pool so the first cold start
	// already finds a ready watchdog (boots run on pool goroutines).
	g.refillPrefork()
}

// cycle is Algorithm 3's loop against the real pool, for as long as the
// gateway lives: every ControlInterval one controlTick, every
// ReapInterval one janitorOnce, one stage at a time. Nothing is started
// per function: a function is controlled, expired and budgeted because
// it is in the registry, whenever it was deployed. An unarmed stage's
// channel stays nil and never fires.
func (g *Gateway) cycle(control, janitor bool) {
	defer g.wg.Done()
	var controlC, reapC <-chan time.Time
	if control {
		t := time.NewTicker(g.cfg.ControlInterval)
		defer t.Stop()
		controlC = t.C
	}
	if janitor {
		t := time.NewTicker(g.cfg.ReapInterval)
		defer t.Stop()
		reapC = t.C
	}
	for {
		select {
		case <-g.life.Done():
			return
		case <-controlC:
			g.controlTick(g.nowFn())
		case <-reapC:
			g.janitorOnce(g.nowFn())
		}
	}
}

// controlTick is one control interval: every function in the registry,
// in name order, is observed, forecast and resized at the same instant
// — what core.HotC.tick does on virtual time — and counted as one tick.
func (g *Gateway) controlTick(now time.Time) {
	for _, s := range g.snapshotShards() {
		g.controlOnce(s.name, now)
	}
	g.obs.ctlTicks.Inc()
	// Keep the generic pre-forked pool topped up even when no request
	// has drained it recently (boot errors or reaps may have left a
	// deficit); the refill itself runs on pool-owned goroutines.
	g.refillPrefork()
}

// controlOnce is controlTick's per-function stage: observe the
// interval's peak concurrent demand, forecast the next interval, and
// prewarm or retire warm instances as core.Plan decides. Tests call it
// directly with deterministic clocks.
//
// The registry read-lock is held across the tick so the stopped check
// and the wg.Add for prewarm boots are atomic against Stop (which sets
// stopped under the write lock before waiting); only this function's
// shard mutex is taken, so a tick never stalls another function's
// requests.
func (g *Gateway) controlOnce(name string, now time.Time) {
	g.smu.RLock()
	s := g.shards[name]
	// Pred is set when the shard is created and never again.
	if g.stopped.Load() || s == nil || s.ctl.Pred == nil {
		g.smu.RUnlock()
		return
	}
	s.mu.Lock()
	st, fn := &s.ctl, s.fn

	// One-step-ahead evaluation: predicted is the forecast that had
	// been made for the interval demand was just observed in. The
	// sharing classifier judges that pair, plus the idle surplus.
	demand, predicted := st.Tick()
	st.observed = appendBounded(st.observed, demand)
	st.predicted = appendBounded(st.predicted, predicted)
	st.ticks++
	if g.cfg.Share {
		prevRole := st.share.Role()
		if role := st.share.Observe(predicted, demand, float64(len(s.idle))); role != prevRole {
			g.shareRoleTransition(prevRole, role)
		}
	}

	// The keep-alive, not the forecast, takes a used function's last
	// warm instance: retain one until the janitor would expire it.
	ttl := g.cfg.IdleTTL
	target, boot, excess := core.Plan(core.PlanInput{
		Forecast: st.Forecast, Headroom: g.cfg.Headroom,
		InFlight: st.InFlight, Live: st.InFlight + st.booting + len(s.idle), Idle: len(s.idle),
		Retain:        !st.lastDone.IsZero() && (ttl == 0 || now.Sub(st.lastDone) < ttl),
		MaxWarm:       g.cfg.MaxIdlePerFunction,
		ScaleDownFrac: core.DefaultScaleDownFrac,
	})
	st.booting += boot
	retire := s.takeOldestLocked(excess, &s.stats.Retired)
	g.obs.ctlRetire.Add(float64(len(retire)))
	s.m.ctlDemand.Set(demand)
	s.m.ctlForecast.Set(st.Forecast)
	s.m.ctlTarget.Set(float64(target))
	g.wg.Add(boot)
	s.mu.Unlock()
	g.smu.RUnlock()

	for i := 0; i < boot; i++ {
		go g.prewarmOne(s, fn)
	}
	stopAll(retire)
}

// prewarmOne boots one instance ahead of demand and pools it — unless
// the gateway stopped, the function was redeployed or the warm cap
// filled while it was booting. It rides the same ladder as requests
// below renting, under the gateway's lifetime, so Stop abandons it
// mid-boot. Any other boot failure is a prewarm.failures count: no
// request saw it, so boot.failures and the breaker do not move.
func (g *Gateway) prewarmOne(s *shard, fn Function) {
	defer g.wg.Done()
	inst, _, err := g.bootInstance(g.life, fn)
	s.mu.Lock()
	if s.ctl.booting > 0 {
		s.ctl.booting--
	}
	overCap := g.cfg.MaxIdlePerFunction > 0 && len(s.idle) >= g.cfg.MaxIdlePerFunction
	switch {
	case err == nil && g.keepLocked(s, inst) && !overCap:
		s.pushLocked(inst, g.nowFn())
		s.stats.Prewarmed++
		g.obs.ctlPrewarm.Inc()
		inst = nil
	case err != nil && g.life.Err() == nil:
		g.event("prewarm-boot-failure")
	}
	s.mu.Unlock()
	if inst != nil {
		inst.stop()
	}
}

// janitorOnce enforces the keep-alive and the warm cap once, oldest
// first; expired instances are stopped outside the locks,
// concurrently. Shards are scanned one at a time — a function with a
// huge idle list delays only its own requests, not every function's.
// Tests call it with deterministic now values. A stopped gateway is
// left alone: Stop already owns teardown, and racing it could
// double-stop or resurrect state.
func (g *Gateway) janitorOnce(now time.Time) {
	if g.stopped.Load() {
		return
	}
	var doomed []*instance
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		if g.stopped.Load() {
			s.mu.Unlock()
			break
		}
		// The list is in parking order, so the expired are a prefix.
		expired := 0
		for g.cfg.IdleTTL > 0 && expired < len(s.idle) && now.Sub(s.idle[expired].idleSince) >= g.cfg.IdleTTL {
			expired++
		}
		doomed = append(doomed, s.takeOldestLocked(expired, &s.stats.Expired)...)
		// Cap backstop (release-time eviction normally keeps this
		// invariant): drop the oldest beyond the limit.
		if limit := g.cfg.MaxIdlePerFunction; limit > 0 {
			doomed = append(doomed, s.takeOldestLocked(len(s.idle)-limit, &s.stats.Retired)...)
		}
		s.mu.Unlock()
	}
	stopAll(doomed)
	// With a memory budget armed, the same scan enforces it: reclaim
	// warm capacity from the biggest holders once the summed estimates
	// exceed the budget.
	g.reclaimMemoryOnce()
}

// PredictionTrace is one function's live controller trace: the
// predictor identity, its latest forecast, and the bounded
// one-step-ahead evaluation series (observed demand vs the forecast
// made for that interval).
type PredictionTrace struct {
	Predictor string    `json:"predictor"`
	Forecast  float64   `json:"forecast"`
	Ticks     int       `json:"ticks"`
	Observed  []float64 `json:"observed"`
	Predicted []float64 `json:"predicted"`
	// Role and ForecastError expose the sharing classifier: the
	// function's lender/renter/neutral classification and the smoothed
	// forecast error it was derived from (positive = over-forecasted).
	// Role is empty when sharing is disabled.
	Role          string  `json:"role,omitempty"`
	ForecastError float64 `json:"forecastError"`
}

// PredictionTraces snapshots the controller state of every function
// under prediction, one shard at a time.
func (g *Gateway) PredictionTraces() map[string]PredictionTrace {
	out := make(map[string]PredictionTrace)
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		if s.ctl.Pred != nil {
			tr := PredictionTrace{
				Predictor: s.ctl.Pred.Name(),
				Forecast:  s.ctl.Forecast,
				Ticks:     s.ctl.ticks,
				Observed:  append([]float64(nil), s.ctl.observed...),
				Predicted: append([]float64(nil), s.ctl.predicted...),
			}
			if g.cfg.Share {
				tr.Role = s.ctl.share.Role().String()
				tr.ForecastError = s.ctl.share.ForecastError()
			}
			out[s.name] = tr
		}
		s.mu.Unlock()
	}
	return out
}

// Forecasts reports each predicted function's latest demand forecast.
func (g *Gateway) Forecasts() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		if s.ctl.Pred != nil {
			out[s.name] = s.ctl.Forecast
		}
		s.mu.Unlock()
	}
	return out
}

// appendBounded appends keeping at most ctlTraceCap trailing elements.
func appendBounded(s []float64, v float64) []float64 {
	s = append(s, v)
	if len(s) > ctlTraceCap {
		s = append(s[:0:0], s[len(s)-ctlTraceCap:]...)
	}
	return s
}
