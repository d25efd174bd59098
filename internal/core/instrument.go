package core

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

// Record books one key's decision: the three gauges, and the boots and
// retirements it asked for.
func (b *Books) Record(key string, d Decision) {
	b.demand.With(key).Set(d.Observed)
	b.forecast.With(key).Set(d.Input.Forecast)
	b.target.With(key).Set(float64(d.Target))
	b.prewarm.Add(float64(d.Boot))
	b.retire.Add(float64(d.Retire))
}

// Cycle counts one control cycle, however many keys it stepped.
func (b *Books) Cycle() { b.ticks.Inc() }
