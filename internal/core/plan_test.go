package core

import (
	"testing"
	"testing/quick"

	"hotc/internal/predictor"
)

// One row per clamp in Plan.
func TestPlanClamps(t *testing.T) {
	cases := []struct {
		name                 string
		in                   PlanInput
		target, boot, retire int
	}{
		{"forecast rounds up", PlanInput{Forecast: 2.1, ScaleDownFrac: 0.25}, 3, 3, 0},
		{"headroom rounds up", PlanInput{Forecast: 4, Headroom: 0.1, ScaleDownFrac: 0.25}, 5, 5, 0},
		{"tiny forecast is one", PlanInput{Forecast: 0.008, ScaleDownFrac: 0.25}, 1, 1, 0},
		{"min-warm floor", PlanInput{Forecast: 0.5, MinWarm: 3, Live: 1, Idle: 1, ScaleDownFrac: 0.25}, 3, 2, 0},
		{"in-flight floor", PlanInput{Forecast: 1, InFlight: 4, Live: 4, ScaleDownFrac: 0.25}, 4, 0, 0},
		{"retain keeps one", PlanInput{Retain: true, Live: 1, Idle: 1, ScaleDownFrac: 0.25}, 1, 0, 0},
		{"retain boots one back", PlanInput{Retain: true, ScaleDownFrac: 0.25}, 1, 1, 0},
		{"retain off lets go", PlanInput{Live: 1, Idle: 1, ScaleDownFrac: 0.25}, 0, 0, 1},
		{"retain only at zero", PlanInput{Forecast: 2, Retain: true, ScaleDownFrac: 0.25}, 2, 2, 0},
		{"cap on target", PlanInput{Forecast: 9, InFlight: 1, Live: 1, MaxWarm: 2, ScaleDownFrac: 0.25}, 3, 2, 0},
		{"cap leaves room minus booting", PlanInput{Forecast: 9, InFlight: 2, Live: 5, Idle: 1, MaxWarm: 4, ScaleDownFrac: 0.25}, 6, 1, 0},
		{"no room left", PlanInput{Forecast: 9, InFlight: 2, Live: 5, Idle: 1, MaxWarm: 3, ScaleDownFrac: 0.25}, 5, 0, 0},
		{"hysteresis quarter", PlanInput{Live: 8, Idle: 8, ScaleDownFrac: 0.25}, 0, 0, 2},
		{"hysteresis at least one", PlanInput{Forecast: 1, Live: 2, Idle: 2, ScaleDownFrac: 0.25}, 1, 0, 1},
		{"hysteresis full fraction", PlanInput{Live: 8, Idle: 8, ScaleDownFrac: 1}, 0, 0, 8},
		{"retire only idle", PlanInput{InFlight: 2, Live: 10, Idle: 1, ScaleDownFrac: 0.5}, 2, 0, 1},
		{"retire nothing busy", PlanInput{Forecast: 1, InFlight: 1, Live: 3, ScaleDownFrac: 0.25}, 1, 0, 0},
		{"steady", PlanInput{Forecast: 3, Live: 3, Idle: 3, ScaleDownFrac: 0.25}, 3, 0, 0},
	}
	for _, c := range cases {
		target, boot, retire := Plan(c.in)
		if target != c.target || boot != c.boot || retire != c.retire {
			t.Errorf("%s: Plan(%+v) = (%d, %d, %d), want (%d, %d, %d)",
				c.name, c.in, target, boot, retire, c.target, c.boot, c.retire)
		}
	}
}

// Whatever the inputs, a plan never boots and retires at once, never
// targets below what is executing, retires only idle runtimes, and
// with a warm cap never boots past it.
func TestPlanProperties(t *testing.T) {
	prop := func(forecast, headroom uint16, inFlight, booting, idle, minWarm, maxWarm, frac uint8, retain bool) bool {
		in := PlanInput{
			Forecast: float64(forecast) / 256, Headroom: float64(headroom) / 65536,
			InFlight: int(inFlight), Live: int(inFlight) + int(booting) + int(idle), Idle: int(idle),
			MinWarm: int(minWarm % 8), Retain: retain, MaxWarm: int(maxWarm % 16),
			ScaleDownFrac: float64(frac%100+1) / 100,
		}
		target, boot, retire := Plan(in)
		switch {
		case boot < 0 || retire < 0 || (boot > 0 && retire > 0):
		case target < in.InFlight || retire > in.Idle:
		case boot > 0 && in.Live+boot != target:
		case retire > 0 && in.Live-retire < target:
		case in.MaxWarm > 0 && boot > max(in.MaxWarm-int(idle)-int(booting), 0):
		default:
			return true
		}
		t.Logf("Plan(%+v) = (%d, %d, %d)", in, target, boot, retire)
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Demand's accounting: the observation is the interval's peak, the
// forecast reported with it is the one made a tick earlier, and peak
// tracking restarts from what is still executing.
func TestPlanDemandTick(t *testing.T) {
	d := Demand{Pred: predictor.NewNaive()}
	d.End() // a stray completion never goes negative
	d.Begin()
	d.Begin()
	d.End()
	d.Begin()
	if d.InFlight != 2 || d.Peak != 2 {
		t.Fatalf("in flight %d peak %d, want 2 and 2", d.InFlight, d.Peak)
	}
	if obs, pred := d.Tick(); obs != 2 || pred != 0 || d.Forecast != 2 || d.Peak != 2 {
		t.Fatalf("first tick = (%v, %v), forecast %v peak %d", obs, pred, d.Forecast, d.Peak)
	}
	d.End()
	d.End()
	if obs, pred := d.Tick(); obs != 2 || pred != 2 || d.Peak != 0 {
		t.Fatalf("second tick = (%v, %v), peak %d", obs, pred, d.Peak)
	}
	if obs, pred := d.Tick(); obs != 0 || pred != 2 || d.Forecast != 0 {
		t.Fatalf("third tick = (%v, %v), forecast %v", obs, pred, d.Forecast)
	}
}
