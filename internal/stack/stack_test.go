package stack

import (
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/faults"
	"hotc/internal/obs"
	"hotc/internal/pool"
	"hotc/internal/simclock"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// replay builds the stack, deploys one function, sends it two requests a
// minute apart and closes the stack.
func replay(t *testing.T, o Options) *Stack {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fn := faas.Function{Name: "qr", Runtime: config.Runtime{Image: "python:3.8"}, App: workload.QRApp(workload.Python)}
	if err := s.Deploy(fn); err != nil {
		t.Fatal(err)
	}
	if _, err := faas.Run(s.Gateway, trace.Serial{Interval: time.Minute, Count: 2}.Generate(), func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	return s
}

// The three callers shape their Options differently (hotc.NewSimulation
// always brings a registry, bench.NewEnv may bring cost-model constants,
// a cluster node brings the shared clock), and before there was one
// builder their stacks drifted: cluster nodes had no memory signal. Every
// shape, under every policy that keeps a pool, must come out with the
// memory signal armed, the health check attached when faults are, and
// its families registered when a registry is given.
func TestCallersStacksAgree(t *testing.T) {
	consts := costmodel.Defaults()
	callers := map[string]func() Options{
		"simulation":   func() Options { return Options{Seed: 7, Metrics: obs.New(), Tracer: obs.NewTracer()} },
		"bench env":    func() Options { return Options{Seed: 7, Constants: &consts} },
		"cluster node": func() Options { return Options{Seed: 7, Sched: simclock.New()} },
	}
	for caller, shape := range callers {
		for _, pol := range []Policy{HotC, KeepAlive, Warmup, Histogram} {
			t.Run(caller+"/"+string(pol), func(t *testing.T) {
				// The controller's first tick is after the run, so only
				// the pool itself removes a runtime.
				options := func() Options {
					o := shape()
					o.Policy, o.PrePull, o.Core.Interval = pol, true, time.Hour
					return o
				}

				// 1 % is below the idle OS's own footprint: a pool that
				// listens to the host evicts whatever is released to it.
				pressed := options()
				pressed.Core.Pool = pool.Options{MemThresholdPct: 1}
				if st := replay(t, pressed).Pool.Stats(); st.Evictions == 0 {
					t.Error("nothing evicted under memory pressure: the pool does not read the host")
				}

				// The first execution corrupts the runtime, so the second
				// request must find it quarantined.
				o := options()
				o.Faults = &faults.Config{Rules: []faults.Rule{{CorruptRate: 1}}}
				if st := replay(t, o).Pool.Stats(); st.Quarantined == 0 {
					t.Error("a corrupted runtime was handed out again: the pool has no health check")
				}

				if o.Metrics == nil {
					return
				}
				families := map[string]bool{}
				for _, f := range o.Metrics.Snapshot() {
					families[f.Name] = true
				}
				want := []string{"hotc_requests_total", "hotc_pool_misses_total"}
				if pol == HotC {
					want = append(want, "hotc_ctl_ticks_total")
				}
				for _, name := range want {
					if !families[name] {
						t.Errorf("family %s not registered", name)
					}
				}
				if got := len(o.Tracer.Spans()); got != 2 {
					t.Errorf("%d spans for 2 requests", got)
				}
			})
		}
	}
}

// Cold keeps no runtimes, so there is no pool to arm; an unknown policy
// and a bad fault config are errors, not panics.
func TestColdAndRefusals(t *testing.T) {
	s, err := New(Options{Policy: Cold})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool != nil || s.HotC != nil || s.Provider == nil {
		t.Fatalf("cold stack: pool=%v hotc=%v provider=%v", s.Pool, s.HotC, s.Provider)
	}
	if _, err := New(Options{Policy: "lukewarm"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Options{Faults: &faults.Config{Rules: []faults.Rule{{CreateFailRate: 2}}}}); err == nil {
		t.Fatal("out-of-range fault rate accepted")
	}
}
