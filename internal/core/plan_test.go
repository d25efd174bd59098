package core

import (
	"testing"
	"testing/quick"

	"hotc/internal/kernel"
	"hotc/internal/predictor"
)

// One row per clamp in Plan.
func TestPlanClamps(t *testing.T) {
	cases := []struct {
		name                 string
		in                   kernel.PlanInput
		target, boot, retire int
	}{
		{"forecast rounds up", kernel.PlanInput{Forecast: 2.1, ScaleDownFrac: 0.25}, 3, 3, 0},
		{"headroom rounds up", kernel.PlanInput{Forecast: 4, Headroom: 0.1, ScaleDownFrac: 0.25}, 5, 5, 0},
		{"tiny forecast is one", kernel.PlanInput{Forecast: 0.008, ScaleDownFrac: 0.25}, 1, 1, 0},
		{"in-flight floor", kernel.PlanInput{Forecast: 1, InFlight: 4, Live: 4, ScaleDownFrac: 0.25}, 4, 0, 0},
		{"retain keeps one", kernel.PlanInput{Retain: true, Live: 1, Idle: 1, ScaleDownFrac: 0.25}, 1, 0, 0},
		{"retain boots one back", kernel.PlanInput{Retain: true, ScaleDownFrac: 0.25}, 1, 1, 0},
		{"retain off lets go", kernel.PlanInput{Live: 1, Idle: 1, ScaleDownFrac: 0.25}, 0, 0, 1},
		{"retain only at zero", kernel.PlanInput{Forecast: 2, Retain: true, ScaleDownFrac: 0.25}, 2, 2, 0},
		{"cap on target", kernel.PlanInput{Forecast: 9, InFlight: 1, Live: 1, MaxWarm: 2, ScaleDownFrac: 0.25}, 3, 2, 0},
		{"cap leaves room minus booting", kernel.PlanInput{Forecast: 9, InFlight: 2, Live: 5, Idle: 1, MaxWarm: 4, ScaleDownFrac: 0.25}, 6, 1, 0},
		{"no room left", kernel.PlanInput{Forecast: 9, InFlight: 2, Live: 5, Idle: 1, MaxWarm: 3, ScaleDownFrac: 0.25}, 5, 0, 0},
		{"hysteresis quarter", kernel.PlanInput{Live: 8, Idle: 8, ScaleDownFrac: 0.25}, 0, 0, 2},
		{"hysteresis at least one", kernel.PlanInput{Forecast: 1, Live: 2, Idle: 2, ScaleDownFrac: 0.25}, 1, 0, 1},
		{"hysteresis full fraction", kernel.PlanInput{Live: 8, Idle: 8, ScaleDownFrac: 1}, 0, 0, 8},
		{"retire only idle", kernel.PlanInput{InFlight: 2, Live: 10, Idle: 1, ScaleDownFrac: 0.5}, 2, 0, 1},
		{"retire nothing busy", kernel.PlanInput{Forecast: 1, InFlight: 1, Live: 3, ScaleDownFrac: 0.25}, 1, 0, 0},
		{"steady", kernel.PlanInput{Forecast: 3, Live: 3, Idle: 3, ScaleDownFrac: 0.25}, 3, 0, 0},
	}
	for _, c := range cases {
		target, boot, retire := kernel.Plan(c.in)
		if target != c.target || boot != c.boot || retire != c.retire {
			t.Errorf("%s: kernel.Plan(%+v) = (%d, %d, %d), want (%d, %d, %d)",
				c.name, c.in, target, boot, retire, c.target, c.boot, c.retire)
		}
	}
}

// Whatever the inputs, a plan never boots and retires at once, never
// targets below what is executing, retires only idle runtimes, and
// with a warm cap never boots past it.
func TestPlanProperties(t *testing.T) {
	prop := func(forecast, headroom uint16, inFlight, booting, idle, maxWarm, frac uint8, retain bool) bool {
		in := kernel.PlanInput{
			Forecast: float64(forecast) / 256, Headroom: float64(headroom) / 65536,
			InFlight: int(inFlight), Live: int(inFlight) + int(booting) + int(idle), Idle: int(idle),
			Retain: retain, MaxWarm: int(maxWarm % 16),
			ScaleDownFrac: float64(frac%100+1) / 100,
		}
		target, boot, retire := kernel.Plan(in)
		switch {
		case boot < 0 || retire < 0 || (boot > 0 && retire > 0):
		case target < in.InFlight || retire > in.Idle:
		case boot > 0 && in.Live+boot != target:
		case retire > 0 && in.Live-retire < target:
		case in.MaxWarm > 0 && boot > max(in.MaxWarm-int(idle)-int(booting), 0):
		default:
			return true
		}
		t.Logf("kernel.Plan(%+v) = (%d, %d, %d)", in, target, boot, retire)
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
	d := kernel.Demand{Pred: predictor.NewNaive()}
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

// Step is one closed interval: the Tick pair, the fresh forecast put
// into the input, Plan's answer, all in one record. The trail keeps the
// last TrailCap of them, oldest first, and Steps counts them all.
func TestPlanStepTrail(t *testing.T) {
	d := kernel.Demand{Pred: predictor.NewNaive()}
	d.Begin()
	d.Begin()
	first := d.Step(kernel.PlanInput{Headroom: 0.5, InFlight: 2, Live: 2, ScaleDownFrac: 0.25})
	want := kernel.Decision{
		Observed: 2, Predicted: 0,
		Input:  kernel.PlanInput{Forecast: 2, Headroom: 0.5, InFlight: 2, Live: 2, ScaleDownFrac: 0.25},
		Target: 3, Hold: 3, Boot: 1,
	}
	if first != want {
		t.Fatalf("first step = %+v, want %+v", first, want)
	}
	for i := 1; i < kernel.TrailCap+5; i++ {
		d.Peak = i % 5
		d.Step(kernel.PlanInput{InFlight: 2, Live: 2, ScaleDownFrac: 0.25})
	}
	trail := d.Trail()
	if d.Steps != kernel.TrailCap+5 || len(trail) != kernel.TrailCap {
		t.Fatalf("steps %d, trail %d; want %d and %d", d.Steps, len(trail), kernel.TrailCap+5, kernel.TrailCap)
	}
	for j, dec := range trail {
		if step := d.Steps - kernel.TrailCap + j; dec.Observed != float64(step%5) {
			t.Fatalf("trail[%d] observed %v, want step %d's peak %d: not oldest first", j, dec.Observed, step, step%5)
		}
		if j > 0 && dec.Predicted != trail[j-1].Input.Forecast {
			t.Fatalf("trail[%d] predicted %v, the step before forecast %v", j, dec.Predicted, trail[j-1].Input.Forecast)
		}
	}
	if trail[len(trail)-1].Input.Forecast != d.Forecast {
		t.Fatalf("newest decision forecast %v, demand forecast %v", trail[len(trail)-1].Input.Forecast, d.Forecast)
	}
}
