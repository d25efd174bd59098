package stack

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/faults"
	"hotc/internal/kernel"
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

// counted sums a family's series in the registry's own snapshot, over
// the series whose label values satisfy keep (nil keeps all).
func counted(reg *obs.Registry, name string, keep func(labels []string) bool) int {
	total := 0.0
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if keep == nil || keep(s.LabelValues) {
				total += s.Value
			}
		}
	}
	return int(total)
}

// Pool.Stats and Gateway.ResilienceCounters are views, not books of
// their own: what they report is what the registry's own snapshot holds,
// on a stack handed a registry and on one that built its own.
func TestSimStatsViewsReadTheRegistry(t *testing.T) {
	for _, given := range []bool{false, true} {
		for _, pol := range []Policy{HotC, KeepAlive, Warmup, Histogram} {
			t.Run(fmt.Sprintf("%s/given=%v", pol, given), func(t *testing.T) {
				o := Options{
					Seed: 5, PrePull: true, Policy: pol, KeepAliveWindow: time.Minute,
					Core: core.Options{Interval: 10 * time.Second, Pool: pool.Options{
						MaxLive: 4, EnableRelaxed: true, EnableSharing: true,
					}},
					Faults: &faults.Config{Seed: 5, Rules: []faults.Rule{{
						CreateFailRate: 0.1, ExecCrashRate: 0.05, CorruptRate: 0.05,
					}}},
				}
				if given {
					o.Metrics = obs.New()
				}
				s, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.Metrics == nil || (given && s.Metrics != o.Metrics) {
					t.Fatalf("stack registry %p, given %p", s.Metrics, o.Metrics)
				}
				s.Gateway.MaxAcquireRetries, s.Gateway.ExecRetries, s.Gateway.BreakerThreshold = 2, 1, 2
				names := []string{"py-a", "py-b", "node"}
				for i, n := range names {
					rt := config.Runtime{Image: "python:3.8", Env: []string{"FN=" + n}}
					if i == 2 {
						rt.Image = "node:10"
					}
					if err := s.Deploy(faas.Function{Name: n, Runtime: rt, App: workload.QRApp(workload.Python)}); err != nil {
						t.Fatal(err)
					}
				}
				schedule := trace.Burst{Base: 3, Factor: 4, BurstRounds: []int{2, 5}, Rounds: 8, Interval: 30 * time.Second}.Generate()
				for i := range schedule {
					schedule[i].Class = i
				}
				if _, err := faas.Run(s.Gateway, schedule, func(c int) string { return names[c%len(names)] }); err != nil {
					t.Fatal(err)
				}

				reg := s.Metrics
				hits := counted(reg, "hotc_pool_hits_total", nil)
				want := pool.Stats{
					Hits:        hits,
					RelaxedHits: counted(reg, "hotc_pool_hits_total", func(l []string) bool { return l[0] == "relaxed" }),
					Misses:      counted(reg, "hotc_pool_misses_total", nil),
					Evictions:   counted(reg, "hotc_pool_evictions_total", nil),
					Prewarmed:   counted(reg, "hotc_pool_prewarmed_total", nil),
					Retired: counted(reg, "hotc_pool_retired_total", func(l []string) bool {
						return l[0] == kernel.RetireScaleDown || l[0] == kernel.RetireExpired
					}),
					Quarantined: counted(reg, "hotc_pool_quarantined_total", nil),
					Leases:      counted(reg, "hotc_pool_leases_total", nil),
				}
				if got := s.Pool.Stats(); got != want || hits == 0 || want.Retired == 0 {
					t.Errorf("Pool.Stats() = %+v, the registry says %+v", got, want)
				}
				wantRes := map[string]int{}
				for kind, key := range map[string]string{
					"acquire-retry": faas.CounterAcquireRetries, "exec-fallback": faas.CounterExecFallbacks,
					"quarantine": faas.CounterQuarantines, "breaker-open": faas.CounterBreakerTrips,
					"breaker-close": faas.CounterBreakerCloses, "degraded-cold": faas.CounterDegradedRequests,
				} {
					if n := counted(reg, "hotc_resilience_events_total", func(l []string) bool { return l[0] == kind }); n > 0 {
						wantRes[key] = n
					}
				}
				if n := counted(reg, "hotc_requests_total", func(l []string) bool { return l[1] == "error" }); n > 0 {
					wantRes[faas.CounterRequestsFailed] = n
				}
				if got := s.Gateway.ResilienceCounters(); !reflect.DeepEqual(got, wantRes) || len(got) == 0 {
					t.Errorf("ResilienceCounters() = %v, the registry says %v", got, wantRes)
				}
			})
		}
	}
}
