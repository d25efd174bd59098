package live

import (
	"fmt"
	"time"

	"hotc/internal/kernel"
	"hotc/internal/predictor"
	"hotc/internal/sharing"
)

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
// accounting and decision trail the simulated controller also uses
// (Pred nil = no prediction) plus what only the live substrate tracks.
type fnControl struct {
	kernel.Demand

	booting  int       // prewarm boots in flight (counted as live)
	hold     int       // the last step's Decision.Hold: the live set its forecast plans
	lastDone time.Time // when release last pooled an instance; zero = never

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
		c, stop := g.clock.NewTicker(g.cfg.ControlInterval)
		defer stop()
		controlC = c
	}
	if janitor {
		c, stop := g.clock.NewTicker(g.cfg.ReapInterval)
		defer stop()
		reapC = c
	}
	for {
		select {
		case <-g.life.Done():
			return
		case <-controlC:
			g.controlTick(g.clock.Now())
		case <-reapC:
			g.janitorOnce(g.clock.Now())
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
	g.obs.ctl.Cycle()
	// Keep the generic pre-forked pool topped up even when no request
	// has drained it recently (boot errors or reaps may have left a
	// deficit); the refill itself runs on pool-owned goroutines.
	g.refillPrefork()
}

// controlOnce is controlTick's per-function stage: kernel.Demand.Step
// observes the interval's peak concurrent demand, forecasts the next
// interval and plans; controlOnce prewarms or retires warm instances as
// the decision says and books it. Tests call it directly with
// deterministic clocks.
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

	// The keep-alive, not the forecast, takes a used function's last
	// warm instance: retain one until the janitor would expire it.
	d := st.Step(kernel.PlanInput{
		InFlight: st.InFlight, Live: st.InFlight + st.booting + len(s.idle), Idle: len(s.idle),
		Retain:        !st.lastDone.IsZero() && !kernel.Expired(now.Sub(st.lastDone), g.keep.Window(name)),
		MaxWarm:       g.cfg.MaxIdlePerFunction,
		ScaleDownFrac: kernel.DefaultScaleDownFrac,
	})
	// The sharing classifier judges the one-step-ahead pair — the
	// forecast that had been made for the interval just observed — plus
	// the idle surplus.
	if g.cfg.Share {
		prevRole := st.share.Role()
		if role := st.share.Observe(d.Predicted, d.Observed, float64(len(s.idle))); role != prevRole {
			g.shareRoleTransition(s, prevRole, role)
		}
	}
	st.booting += d.Boot
	st.hold = d.Hold
	retire := s.takeOldestLocked(d.Retire, evictScaleDown)
	g.obs.ctl.For(name).Record(d)
	g.wg.Add(d.Boot)
	s.mu.Unlock()
	g.smu.RUnlock()

	for i := 0; i < d.Boot; i++ {
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
		s.pushLocked(inst, g.clock.Now())
		g.obs.Prewarmed.Inc()
		inst = nil
	case err != nil && g.life.Err() == nil:
		g.event("prewarm-boot-failure")
	}
	s.mu.Unlock()
	if inst != nil {
		inst.stop()
	}
}

// janitorOnce is the janitor stage of the control cycle: one reclaim
// pass at now under the gateway's keep-alive rule. Tests call it with
// deterministic now values.
func (g *Gateway) janitorOnce(now time.Time) { g.reclaim(now, g.keep) }

// WarmMemoryStats reports the estimated warm-instance memory footprint
// against the configured budget (both zero when no budget is set).
type WarmMemoryStats struct {
	BudgetBytes int64 `json:"budgetBytes"`
	WarmBytes   int64 `json:"warmBytes"`
	// Reclaimed counts instances evicted by budget pressure.
	Reclaimed int `json:"reclaimed"`
}

// instanceMemBytes is what one warm instance or idle generic counts
// against MemoryBudget: the order of a small language runtime's RSS.
const instanceMemBytes = 64 << 20

// WarmMemory snapshots the memory-budget accounting. Idle generic
// pre-forked watchdogs count against the budget like any other warm
// instance.
func (g *Gateway) WarmMemory() WarmMemoryStats {
	if g.cfg.MemoryBudget <= 0 {
		return WarmMemoryStats{}
	}
	total := 0
	for _, s := range g.snapshotShards() {
		total += int(s.m.warm.Value())
	}
	if g.cold.pool != nil {
		total += g.cold.pool.Idle()
	}
	return WarmMemoryStats{
		BudgetBytes: g.cfg.MemoryBudget,
		WarmBytes:   int64(total) * instanceMemBytes,
		Reclaimed:   int(g.obs.admMemReclaimed.Value()),
	}
}

// reclaim is the janitor's one pass over the registry, in name order.
// Each shard's warm instances that have outlived keep's window
// (kernel.Expired) expire, but only those above the idle share the last
// control step's forecast plans (its Hold, less what is in flight or
// booting): the simulator never expires what its plan keeps, and a
// prewarm expired before the arrival it was booted for is a boot paid
// twice. The Retain floor is not in that share, so the keep-alive still
// ends a quiet function's last instance. Then, with a memory budget
// armed, what the summed per-instance estimates hold over the budget is
// given back: idle generics first — they carry no function state, and
// the pre-forked pool re-grows whenever the budget allows — then the
// warm instances kernel.Reclaim picks, the longest idle first, ties in
// name order. A shard's list is in parking order, so its victims are a
// prefix of it. Everything taken is stopped outside the locks,
// concurrently. It returns the number of instances the budget
// reclaimed. A stopped gateway is left alone: Stop already owns
// teardown, and racing it could double-stop or resurrect state.
func (g *Gateway) reclaim(now time.Time, keep kernel.Fixed) int {
	if g.stopped.Load() {
		return 0
	}
	budget := g.cfg.MemoryBudget > 0
	shards := g.snapshotShards()
	var doomed []*instance
	var ages []time.Duration // what expiry left idle, shard by shard in list order
	var owner []int          // the index in shards of each entry of ages
	for i, s := range shards {
		s.mu.Lock()
		if g.stopped.Load() {
			s.mu.Unlock()
			break
		}
		expired, window := 0, keep.Window(s.name)
		above := len(s.idle) - max(s.ctl.hold-s.ctl.InFlight-s.ctl.booting, 0)
		for expired < above && kernel.Expired(now.Sub(s.idle[expired].idleSince), window) {
			expired++
		}
		doomed = append(doomed, s.takeOldestLocked(expired, evictExpired)...)
		if budget {
			for _, inst := range s.idle {
				ages = append(ages, now.Sub(inst.idleSince))
				owner = append(owner, i)
			}
		}
		s.mu.Unlock()
	}
	if !budget || g.stopped.Load() {
		stopAll(doomed)
		return 0
	}

	generics := 0
	if g.cold.pool != nil {
		generics = g.cold.pool.Idle()
	}
	held, reclaimed := len(ages)+generics, 0
	if excess := held - int(g.cfg.MemoryBudget/instanceMemBytes); excess > 0 {
		if generics > 0 {
			reclaimed = g.cold.pool.Reap(min(excess, generics))
			g.obs.coldReaped.Add(float64(reclaimed))
		}
		take := make([]int, len(shards))
		for _, v := range kernel.Reclaim(ages, excess-reclaimed) {
			take[owner[v]]++
		}
		for i, s := range shards {
			if take[i] > 0 {
				s.mu.Lock()
				victims := s.takeOldestLocked(take[i], evictBudget)
				s.mu.Unlock()
				doomed = append(doomed, victims...)
				reclaimed += len(victims)
			}
		}
		g.obs.admMemReclaimed.Add(float64(reclaimed))
	}
	g.obs.admMemBytes.Set(float64(held-reclaimed) * instanceMemBytes)
	stopAll(doomed)
	return reclaimed
}

// PredictionTrace is one function's live controller trace: the
// predictor identity, its latest forecast, and the one-step-ahead
// evaluation series read off the decision trail (observed demand vs the
// forecast made for that interval, the last kernel.TrailCap intervals).
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
				Ticks:     s.ctl.Steps,
			}
			for _, d := range s.ctl.Trail() {
				tr.Observed = append(tr.Observed, d.Observed)
				tr.Predicted = append(tr.Predicted, d.Predicted)
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
