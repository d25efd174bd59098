package core

import (
	"math"

	"hotc/internal/predictor"
)

// DefaultScaleDownFrac is the share of a key's live set the control
// loop retires per tick at most (see Options.ScaleDownFrac).
const DefaultScaleDownFrac = 0.25

// Demand is one key's demand accounting: what Algorithm 3 observes (the
// interval's peak concurrent demand) and the forecast it made for it.
// The simulated middleware and the live gateway both embed it.
type Demand struct {
	Pred     predictor.Predictor
	InFlight int     // requests executing or reserved right now
	Peak     int     // max concurrent demand in the current interval
	Forecast float64 // prediction for the current interval, made at the last tick
}

// Begin counts a request in.
func (d *Demand) Begin() {
	d.InFlight++
	if d.InFlight > d.Peak {
		d.Peak = d.InFlight
	}
}

// End counts a request out.
func (d *Demand) End() {
	if d.InFlight > 0 {
		d.InFlight--
	}
}

// Tick closes the interval: it returns the observed demand and the
// forecast that had been made for it (Fig. 10's evaluation pair), and
// leaves the next interval's forecast in d.Forecast.
func (d *Demand) Tick() (observed, predicted float64) {
	observed, predicted = float64(d.Peak), d.Forecast
	d.Pred.Observe(observed)
	d.Forecast = d.Pred.Predict()
	d.Peak = d.InFlight
	return observed, predicted
}

// PlanInput is what Algorithm 3 decides from, for one key at one tick.
type PlanInput struct {
	Forecast      float64 // raw predictor output for the next interval
	Headroom      float64 // fraction added on top of the forecast (0.1 = +10%)
	InFlight      int     // requests executing now
	Live          int     // in-flight + booting + idle
	Idle          int     // what could be retired right now
	MinWarm       int     // floor regardless of the forecast
	Retain        bool    // recently used: keep one even when the forecast rounds to zero (Fig. 12a)
	MaxWarm       int     // cap on idle + booting; 0 = none
	ScaleDownFrac float64 // share of Live that may retire per tick (hysteresis)
}

// Plan is Algorithm 3's decision, the only copy: the size the key's
// live set should have, and how many runtimes to boot or retire now to
// move towards it. At most one of boot and retire is non-zero.
func Plan(in PlanInput) (target, boot, retire int) {
	target = int(math.Ceil(in.Forecast * (1 + in.Headroom)))
	if target < in.MinWarm {
		target = in.MinWarm
	}
	if target < in.InFlight {
		target = in.InFlight // never scale below what is executing
	}
	if target == 0 && in.Retain {
		target = 1
	}
	// The idle share stays under the cap. Live - InFlight is idle +
	// booting, so this also keeps a boot inside the room the cap leaves:
	// target - Live <= MaxWarm - idle - booting.
	if in.MaxWarm > 0 && target > in.InFlight+in.MaxWarm {
		target = in.InFlight + in.MaxWarm
	}
	switch {
	case target > in.Live:
		boot = target - in.Live
	case target < in.Live:
		// Hysteresis: a fraction of the live set, at least one, only idle.
		retire = min(in.Live-target, int(math.Ceil(float64(in.Live)*in.ScaleDownFrac)), in.Idle)
	}
	return target, boot, retire
}
