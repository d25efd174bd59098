package live

import (
	"context"
	"testing"
	"time"

	"hotc"
	"hotc/internal/obs"
	"hotc/internal/predictor"
)

// ctlTick is what one control interval looked like from outside: the
// pool size the interval's demand found, and the three gauges both
// stacks publish under the same names after the tick that closed it.
type ctlTick struct {
	warm                       int
	observed, forecast, target float64
}

func readTick(reg *obs.Registry, key string, warm int) ctlTick {
	gauge := func(name string) float64 { return reg.GaugeVec(name, "", "key").With(key).Value() }
	return ctlTick{warm, gauge("hotc_ctl_demand"), gauge("hotc_ctl_forecast"), gauge("hotc_ctl_target")}
}

// simTicks replays the per-interval peak demands through the
// simulation: each interval's requests arrive together at its middle,
// on virtual time, and the control loop ticks at its end.
func simTicks(t *testing.T, tick time.Duration, demands []int) []ctlTick {
	t.Helper()
	sim, err := hotc.NewSimulation(hotc.Config{ControlInterval: tick, LocalImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	app, err := hotc.AppQR("python")
	if err != nil {
		t.Fatal(err)
	}
	rt := hotc.Runtime{Image: "python:3.8"}
	if err := sim.Deploy(hotc.FunctionSpec{Name: "f", Runtime: rt, App: app}); err != nil {
		t.Fatal(err)
	}
	var out []ctlTick
	for i, d := range demands {
		end := time.Duration(i+1) * tick
		sim.AdvanceTime(end - tick/2 - sim.Now())
		warm := sim.LiveContainers()
		if d > 0 {
			if _, err := sim.Replay(make(hotc.Workload, d), nil); err != nil {
				t.Fatal(err)
			}
		}
		if sim.Now() >= end {
			t.Fatalf("interval %d: requests ran into the tick (now %v)", i, sim.Now())
		}
		sim.AdvanceTime(end - sim.Now())
		out = append(out, readTick(sim.Metrics(), string(rt.Key()), warm))
	}
	return out
}

// liveTicks drives the same demands through a live gateway: real
// watchdogs with zero-cost boots, the fake clock for time, acquire and
// release called directly so an interval's requests overlap exactly.
func liveTicks(t *testing.T, tick, keepAlive time.Duration, demands []int) []ctlTick {
	t.Helper()
	g, clk, _ := startControlled(t,
		PoolConfig{NewPredictor: func() predictor.Predictor { return predictor.Default() }, IdleTTL: keepAlive},
		echoFn("f", 0))
	s := g.shard("f")
	var out []ctlTick
	for i, d := range demands {
		clk.Advance(tick / 2)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			booting := s.ctl.booting
			s.mu.Unlock()
			if booting == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("interval %d: %d prewarm boots never landed", i, booting)
			}
		}
		warm := g.WarmInstances("f")
		held := make([]*instance, d)
		for j := range held {
			inst, _, err := g.acquire(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			held[j] = inst
		}
		for _, inst := range held {
			g.release(s, inst, true)
		}
		g.controlOnce("f", clk.Advance(tick/2))
		out = append(out, readTick(g.reg, "f", warm))
	}
	return out
}

// The simulator referees the live stack: the same per-interval demand
// through hotc.Simulation (core.HotC on virtual time) and through a
// live gateway (controlOnce on the fake clock) must produce the same
// observation, the same forecast, the same target and the same pool,
// tick by tick — one control law, two substrates. The simulation
// retains a used runtime for 30 minutes; the live side gets the same
// window as its keep-alive.
func TestSimLiveControlParity(t *testing.T) {
	const tick, retain = time.Minute, 30 * time.Minute
	silence := make([]int, 36) // runs past the retain window
	silence[0] = 1
	for name, demands := range map[string][]int{
		"burst then decay":         {6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"ramp":                     {1, 2, 3, 4, 5, 6, 6, 6, 3, 3, 0, 0},
		"one request then silence": silence,
	} {
		t.Run(name, func(t *testing.T) {
			want := simTicks(t, tick, demands)
			got := liveTicks(t, tick, retain, demands)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("interval %d (demand %d): live %+v, simulation %+v", i, demands[i], got[i], want[i])
				}
			}
		})
	}
}
