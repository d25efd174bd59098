package kernel

import (
	"math"
	"testing"
)

// An overwhelming forecast saturates at the cap: it boots up to it and
// never retires. With no cap it leaves the live set as it is.
func TestPlanSaturatesOverwhelmingForecast(t *testing.T) {
	for _, f := range []float64{1e30, math.Inf(1), math.NaN(), float64(math.MaxInt)} {
		in := PlanInput{Forecast: f, InFlight: 2, Live: 4, Idle: 2, MaxWarm: 8, ScaleDownFrac: 0.5}
		if target, boot, retire := Plan(in); target != 10 || boot != 6 || retire != 0 {
			t.Errorf("Plan(forecast %v, cap 8) = (%d, %d, %d), want (10, 6, 0)", f, target, boot, retire)
		}
		in.MaxWarm = 0
		if target, boot, retire := Plan(in); target != 4 || boot != 0 || retire != 0 {
			t.Errorf("Plan(forecast %v, no cap) = (%d, %d, %d), want (4, 0, 0)", f, target, boot, retire)
		}
	}
	// A forecast of -Inf is no demand: the in-flight floor holds.
	in := PlanInput{Forecast: math.Inf(-1), InFlight: 2, Live: 4, Idle: 2, MaxWarm: 8, ScaleDownFrac: 0.5}
	if target, boot, retire := Plan(in); target != 2 || boot != 0 || retire != 2 {
		t.Errorf("Plan(forecast -Inf) = (%d, %d, %d), want (2, 0, 2)", target, boot, retire)
	}
}
