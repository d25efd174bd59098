// Package kernel holds what the simulated middleware and the live
// gateway share: Algorithm 3's control step (Plan, Demand.Step), the
// circuit breaker, node placement over the consistent-hash ring
// (Place), the reclaim and keep-alive rules (Reclaim, Retention,
// Expired), and the metric families both substrates count into. It is
// a leaf: it imports only obs, predictor and simclock, so neither
// substrate links the other to reach a shared rule.
package kernel

import (
	"math"
	"slices"

	"hotc/internal/predictor"
)

// DefaultScaleDownFrac is the share of a key's live set the control
// loop retires per tick at most (see core.Options.ScaleDownFrac).
const DefaultScaleDownFrac = 0.25

// TrailCap bounds each key's decision trail: the last TrailCap control
// intervals are kept, older ones dropped.
const TrailCap = 128

// Demand is one key's demand accounting: what Algorithm 3 observes (the
// interval's peak concurrent demand), the forecast it made for it, and
// the trail of decisions Step took. The simulated middleware and the
// live gateway both embed it.
type Demand struct {
	Pred     predictor.Predictor
	InFlight int     // requests executing or reserved right now
	Peak     int     // max concurrent demand in the current interval
	Forecast float64 // prediction for the current interval, made at the last tick
	Steps    int     // control intervals closed so far

	// trail holds the last TrailCap decisions as a ring: once full, the
	// oldest sits at Steps % TrailCap.
	trail []Decision
}

// Decision is one closed control interval, Fig. 10's evaluation pair
// plus everything Algorithm 3 decided from and decided. The substrate
// applies Boot and Retire; the live gateway's keep-alive also leaves the
// idle share Hold plans for (the simulator never expires on a
// keep-alive, so it has nothing to leave).
type Decision struct {
	Observed  float64   // the interval's peak concurrent demand
	Predicted float64   // the forecast made for the interval a step earlier
	Input     PlanInput // what Plan decided from; Input.Forecast is the next interval's forecast
	Target    int       // the size the key's live set should have
	Hold      int       // Target before the Retain floor: the live set the forecast itself asks for
	Boot      int       // runtimes to boot now
	Retire    int       // idle runtimes to retire now
}

// Step closes the interval, the only way either substrate does: it
// ticks the demand accounting, puts the fresh forecast into in, plans,
// and appends the decision to the key's trail. in carries everything
// but the forecast.
func (d *Demand) Step(in PlanInput) Decision {
	observed, predicted := d.Tick()
	in.Forecast = d.Forecast
	dec := Decision{Observed: observed, Predicted: predicted, Input: in, Hold: hold(in)}
	dec.Target, dec.Boot, dec.Retire = Plan(in)
	if len(d.trail) < TrailCap {
		d.trail = append(d.trail, dec)
	} else {
		d.trail[d.Steps%TrailCap] = dec
	}
	d.Steps++
	return dec
}

// Trail returns the key's last TrailCap decisions, oldest first.
func (d *Demand) Trail() []Decision {
	oldest := d.Steps % TrailCap // len(d.trail) while the ring fills: nothing wraps
	return append(slices.Clone(d.trail[oldest:]), d.trail[:oldest]...)
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
// Step fills in Forecast; the substrate fills in the rest. Plan expects
// InFlight + Idle ≤ Live, a finite Headroom ≥ 0 and ScaleDownFrac in
// [0, 1].
type PlanInput struct {
	Forecast float64 // raw predictor output for the next interval
	Headroom float64 // fraction added on top of the forecast (0.1 = +10%)
	InFlight int     // requests executing now
	Live     int     // in-flight + booting + idle
	Idle     int     // what could be retired right now
	Retain   bool    // recently used: keep one even when the forecast rounds to zero (Fig. 12a)
	MaxWarm  int     // cap on idle + booting; 0 = none
	// ScaleDownFrac is the share of Live that may retire per tick
	// (hysteresis), rounded up: 0 retires nothing, and above 0 a retire
	// takes at least one whenever Live is above the target and Idle > 0.
	ScaleDownFrac float64
}

// Plan is Algorithm 3's decision, the only copy: the size the key's
// live set should have, and how many runtimes to boot or retire now to
// move towards it. FuzzPlan checks its contract:
//   - at most one of boot and retire is non-zero, and neither passes
//     the target;
//   - target ≥ InFlight, and with Retain target ≥ 1;
//   - a boot never takes idle + booting past MaxWarm;
//   - retire ≤ Idle and retire ≤ ⌈ScaleDownFrac × Live⌉, so
//     ScaleDownFrac 0 retires nothing;
//   - boot never decreases as Forecast grows, except with no cap, where
//     an overwhelming forecast boots nothing;
//   - a forecast too large for an int, +Inf or NaN is overwhelming: it
//     saturates at the cap, and with no cap it targets Live as it is.
func Plan(in PlanInput) (target, boot, retire int) {
	target = hold(in)
	if target == 0 && in.Retain {
		target = 1
	}
	switch {
	case target > in.Live:
		boot = target - in.Live
	case target < in.Live:
		// Hysteresis: a ScaleDownFrac share of the live set, rounded up,
		// only idle.
		retire = min(in.Live-target, int(math.Ceil(float64(in.Live)*in.ScaleDownFrac)), in.Idle)
	}
	return target, boot, retire
}

// hold is Plan's target before the Retain floor: the forecast with its
// headroom, under the cap and saturated as Plan's contract says, never
// below what is executing. It is what Decision.Hold records.
func hold(in PlanInput) int {
	f := math.Ceil(in.Forecast * (1 + in.Headroom))
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	// The idle share stays under the cap. Live - InFlight is idle +
	// booting, so this also keeps a boot inside the room the cap leaves:
	// target - Live <= MaxWarm - idle - booting.
	if in.MaxWarm > 0 {
		f = min(f, float64(in.InFlight+in.MaxWarm))
	} else if f >= float64(math.MaxInt) {
		f = float64(in.Live)
	}
	return max(int(max(f, 0)), in.InFlight) // never scale below what is executing
}
