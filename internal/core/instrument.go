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

// KeyBooks are one runtime key's control gauges, resolved once (see
// Books.For).
type KeyBooks struct {
	b                        *Books
	demand, forecast, target *obs.Gauge
}

// For resolves the key's control gauges. The series appear in the
// registry from then on.
func (b *Books) For(key string) *KeyBooks {
	return &KeyBooks{b: b, demand: b.demand.With(key), forecast: b.forecast.With(key), target: b.target.With(key)}
}

// Record books one decision of the key: the three gauges, and the boots
// and retirements it asked for.
func (k *KeyBooks) Record(d Decision) {
	k.demand.Set(d.Observed)
	k.forecast.Set(d.Input.Forecast)
	k.target.Set(float64(d.Target))
	k.b.prewarm.Add(float64(d.Boot))
	k.b.retire.Add(float64(d.Retire))
}

// Cycle counts one control cycle, however many keys it stepped.
func (b *Books) Cycle() { b.ticks.Inc() }
