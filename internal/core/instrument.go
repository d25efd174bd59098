package core

import (
	"hotc/internal/obs"
)

// instruments bundles the control loop's metric families, registered
// on the pool's registry so one registry holds the whole provider.
type instruments struct {
	demand   *obs.GaugeVec // hotc_ctl_demand{key}
	forecast *obs.GaugeVec // hotc_ctl_forecast{key}
	target   *obs.GaugeVec // hotc_ctl_target{key}
	prewarm  *obs.Counter  // hotc_ctl_prewarm_total
	retire   *obs.Counter  // hotc_ctl_retire_total
	ticks    *obs.Counter  // hotc_ctl_ticks_total
}

// newInstruments registers the controller's metric families.
func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
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
