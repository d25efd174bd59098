package live

import (
	"context"
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/faas"
	"hotc/internal/kernel"
	"hotc/internal/predictor"
	"hotc/internal/stack"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// simTrail replays the per-interval peak demands through the
// simulation: each interval's requests arrive together at its middle,
// on virtual time, and the control loop ticks at its end. It returns
// the controller's decision trail and the pool size each interval's
// demand found.
func simTrail(t *testing.T, tick time.Duration, demands []int) ([]kernel.Decision, []int) {
	t.Helper()
	st, err := stack.New(stack.Options{PrePull: true, Core: core.Options{Interval: tick}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fn := faas.Function{Name: "f", Runtime: config.Runtime{Image: "python:3.8"}, App: workload.QRApp(workload.Python)}
	if err := st.Deploy(fn); err != nil {
		t.Fatal(err)
	}
	var warm []int
	for i, d := range demands {
		end := time.Duration(i+1) * tick
		st.Sched.Sleep(end - tick/2 - st.Sched.Now())
		warm = append(warm, st.Engine.Live())
		if d > 0 {
			if _, err := faas.Run(st.Gateway, make([]trace.Request, d), func(int) string { return "f" }); err != nil {
				t.Fatal(err)
			}
		}
		if st.Sched.Now() >= end {
			t.Fatalf("interval %d: requests ran into the tick (now %v)", i, st.Sched.Now())
		}
		st.Sched.Sleep(end - st.Sched.Now())
	}
	trail, _ := st.HotC.Trail(fn.Runtime.Key())
	return trail, warm
}

// liveTrail drives the same demands through a live gateway: real
// watchdogs with zero-cost boots, the fake clock for time, acquire and
// release called directly so an interval's requests overlap exactly.
// With reap, the janitor runs at every half-tick: in the middle of an
// interval before its demand is served, and at its end after the tick.
func liveTrail(t *testing.T, backend string, tick, keepAlive time.Duration, reap bool, demands []int) ([]kernel.Decision, []int) {
	t.Helper()
	g, clk, _ := startControlled(t,
		PoolConfig{Backend: backend, NewPredictor: func() predictor.Predictor { return predictor.Default() }, IdleTTL: keepAlive},
		echoFn("f", 0))
	s := g.shard("f")
	var warm []int
	for i, d := range demands {
		mid := clk.Advance(tick / 2)
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
		if reap {
			g.janitorOnce(mid)
		}
		warm = append(warm, g.WarmInstances("f"))
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
		end := clk.Advance(tick / 2)
		g.controlOnce("f", end)
		if reap {
			g.janitorOnce(end)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.Trail(), warm
}

// The simulator referees the live stack: the same per-interval demand
// through the simulation (core.HotC on virtual time) and through a live
// gateway (controlOnce on the fake clock) must leave the same decision
// trail — observation, forecasts, every PlanInput field, target, hold,
// boot and retire — and the same pool, tick by tick: one control step,
// two substrates. The simulation retains a used runtime for 30 minutes;
// the live side gets the same window as its keep-alive, on either
// backend. Under a keep-alive shorter than half a tick, with the
// janitor at every half-tick, the simulation still keeps what its plan
// holds and so must the live pool: its Retain reads false at every tick
// (the last release was half a tick ago), which under a steady forecast
// changes nothing else.
func TestSimLiveControlParity(t *testing.T) {
	const tick, retain = time.Minute, 30 * time.Minute
	silence := make([]int, 36) // runs past the retain window
	silence[0] = 1
	for name, script := range map[string]struct {
		demands   []int
		keepAlive time.Duration // the live side's; the janitor runs only when it is below retain
	}{
		"burst then decay":                       {[]int{6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, retain},
		"ramp":                                   {[]int{1, 2, 3, 4, 5, 6, 6, 6, 3, 3, 0, 0}, retain},
		"one request then silence":               {silence, retain},
		"steady demand under a short keep-alive": {[]int{2, 2, 2, 2, 2, 2, 2, 2}, tick / 4},
	} {
		t.Run(name, func(t *testing.T) {
			demands, reap := script.demands, script.keepAlive < retain
			want, wantWarm := simTrail(t, tick, demands)
			onBackends(t, func(t *testing.T, backend string) {
				got, gotWarm := liveTrail(t, backend, tick, script.keepAlive, reap, demands)
				if len(got) != len(demands) || len(want) != len(demands) {
					t.Fatalf("trails of %d (live) and %d (simulation) decisions, want %d", len(got), len(want), len(demands))
				}
				for i := range want {
					if reap {
						got[i].Input.Retain = want[i].Input.Retain
					}
					if got[i] != want[i] || gotWarm[i] != wantWarm[i] {
						t.Errorf("interval %d (demand %d):\n live       %d warm, %+v\n simulation %d warm, %+v",
							i, demands[i], gotWarm[i], got[i], wantWarm[i], want[i])
					}
				}
			})
		})
	}
}
