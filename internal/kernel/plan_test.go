package kernel

import (
	"fmt"
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

// ScaleDownFrac 0 retires nothing; above 0, a retire takes at least one
// whenever Live is above the target and something is idle.
func TestPlanScaleDownFrac(t *testing.T) {
	for _, c := range []struct {
		name   string
		in     PlanInput
		retire int
	}{
		{"zero retires nothing", PlanInput{Live: 8, Idle: 8}, 0},
		{"zero retires nothing under the cap", PlanInput{Live: 8, Idle: 8, MaxWarm: 2}, 0},
		{"a sliver retires one", PlanInput{Live: 8, Idle: 8, ScaleDownFrac: 0.01}, 1},
		{"a sliver of one retires it", PlanInput{Live: 1, Idle: 1, ScaleDownFrac: 0.01}, 1},
		{"a sliver retires none busy", PlanInput{InFlight: 1, Live: 3, ScaleDownFrac: 0.01}, 0},
		{"a quarter rounds up", PlanInput{Live: 5, Idle: 5, ScaleDownFrac: 0.25}, 2},
		{"all of it", PlanInput{Live: 5, Idle: 5, ScaleDownFrac: 1}, 5},
	} {
		if _, boot, retire := Plan(c.in); boot != 0 || retire != c.retire {
			t.Errorf("%s: Plan(%+v) boots %d and retires %d, want 0 and %d", c.name, c.in, boot, retire, c.retire)
		}
	}
}

// planSeeds are TestPlanClamps' rows (in internal/core) and the
// overwhelming forecasts, as FuzzPlan's seed corpus.
var planSeeds = []PlanInput{
	{Forecast: 2.1, ScaleDownFrac: 0.25},
	{Forecast: 4, Headroom: 0.1, ScaleDownFrac: 0.25},
	{Forecast: 0.008, ScaleDownFrac: 0.25},
	{Forecast: 1, InFlight: 4, Live: 4, ScaleDownFrac: 0.25},
	{Retain: true, Live: 1, Idle: 1, ScaleDownFrac: 0.25},
	{Retain: true, ScaleDownFrac: 0.25},
	{Live: 1, Idle: 1, ScaleDownFrac: 0.25},
	{Forecast: 2, Retain: true, ScaleDownFrac: 0.25},
	{Forecast: 9, InFlight: 1, Live: 1, MaxWarm: 2, ScaleDownFrac: 0.25},
	{Forecast: 9, InFlight: 2, Live: 5, Idle: 1, MaxWarm: 4, ScaleDownFrac: 0.25},
	{Forecast: 9, InFlight: 2, Live: 5, Idle: 1, MaxWarm: 3, ScaleDownFrac: 0.25},
	{Live: 8, Idle: 8, ScaleDownFrac: 0.25},
	{Forecast: 1, Live: 2, Idle: 2, ScaleDownFrac: 0.25},
	{Live: 8, Idle: 8, ScaleDownFrac: 1},
	{InFlight: 2, Live: 10, Idle: 1, ScaleDownFrac: 0.5},
	{Forecast: 1, InFlight: 1, Live: 3, ScaleDownFrac: 0.25},
	{Forecast: 3, Live: 3, Idle: 3, ScaleDownFrac: 0.25},
	{Forecast: 1e30, InFlight: 2, Live: 4, Idle: 2, MaxWarm: 8, ScaleDownFrac: 0.5},
	{Forecast: math.Inf(1), InFlight: 2, Live: 4, Idle: 2, ScaleDownFrac: 0.5},
	{Forecast: math.NaN(), InFlight: 2, Live: 4, Idle: 2, MaxWarm: 8, ScaleDownFrac: 0.5},
	{Forecast: math.NaN(), Retain: true},
	{Forecast: float64(math.MaxInt), Live: 3, Idle: 3, MaxWarm: 1, ScaleDownFrac: 0.5},
}

// FuzzPlan checks Plan's contract (see its doc comment) on any input in
// its domain, and Decision.Hold's beside it: Plan's target before the
// Retain floor.
func FuzzPlan(f *testing.F) {
	for _, in := range planSeeds {
		f.Add(in.Forecast, in.Headroom, uint8(in.InFlight), uint8(in.Live-in.InFlight-in.Idle), uint8(in.Idle), uint8(in.MaxWarm), in.ScaleDownFrac, in.Retain)
	}
	f.Fuzz(func(t *testing.T, forecast, headroom float64, inFlight, booting, idle, maxWarm uint8, frac float64, retain bool) {
		if !(headroom >= 0 && headroom <= math.MaxFloat64 && frac >= 0 && frac <= 1) {
			return
		}
		in := PlanInput{Forecast: forecast, Headroom: headroom, InFlight: int(inFlight), Live: int(inFlight) + int(booting) + int(idle),
			Idle: int(idle), Retain: retain, MaxWarm: int(maxWarm), ScaleDownFrac: frac}
		target, boot, retire := Plan(in)
		held := hold(in)
		holds := func(ok bool, property string) {
			if !ok {
				t.Fatalf("Plan(%+v) = (%d, %d, %d), hold %d: not %s", in, target, boot, retire, held, property)
			}
		}
		holds(boot >= 0 && retire >= 0 && (boot == 0 || retire == 0), "at most one of boot and retire")
		holds(boot == 0 || in.Live+boot == target, "a boot reaching the target exactly")
		holds(retire == 0 || in.Live-retire >= target, "a retire stopping at the target")
		holds(target >= in.InFlight, "target ≥ InFlight")
		holds(!retain || target >= 1, "Retain keeping at least 1")
		holds(boot == 0 || in.MaxWarm == 0 || in.Live+boot-in.InFlight <= in.MaxWarm, "a boot inside MaxWarm")
		holds(retire <= in.Idle && float64(retire) <= math.Ceil(frac*float64(in.Live)), "retire ≤ Idle and ≤ ⌈ScaleDownFrac × Live⌉")
		holds(frac == 0 || in.Live <= target || in.Idle == 0 || retire >= 1, "a retire of at least one above ScaleDownFrac 0")
		holds(held <= target, "Hold ≤ Target")
		holds(held == target || retain && held == 0 && target == 1, "Hold = Target unless Retain lifted a zero target to 1")
		holds(in.MaxWarm == 0 || held <= in.InFlight+in.MaxWarm, "Hold inside MaxWarm")

		overwhelming := func(forecast float64) bool {
			f := math.Ceil(forecast * (1 + headroom))
			return math.IsNaN(f) || f >= float64(math.MaxInt)
		}
		if overwhelming(forecast) {
			want := max(in.Live, 1)
			if in.MaxWarm > 0 {
				want = in.InFlight + in.MaxWarm
			} else if !retain {
				want = in.Live
			}
			holds(target == want, "an overwhelming forecast saturating at the cap, or targeting Live with none")
			want = in.Live
			if in.MaxWarm > 0 {
				want = in.InFlight + in.MaxWarm
			}
			holds(held == want, "an overwhelming forecast holding the cap, or Live with none")
		}
		for _, more := range []float64{math.Nextafter(forecast, math.Inf(1)), forecast + 1, 2 * forecast, math.Inf(1)} {
			if !(more > forecast) || in.MaxWarm == 0 && overwhelming(more) {
				continue // a larger forecast, but below an overwhelming one with no cap
			}
			grown := in
			grown.Forecast = more
			_, moreBoot, _ := Plan(grown)
			holds(moreBoot >= boot, fmt.Sprintf("a boot that grows with the forecast (%d at %v)", moreBoot, more))
		}
	})
}
