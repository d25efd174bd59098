package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotc"
	"hotc/internal/obs"
)

// family sums a family's series in a registry snapshot, over the series
// whose label values satisfy keep (nil keeps all).
func family(snap []obs.FamilySnapshot, name string, keep func(labels []string) bool) int {
	total := 0.0
	for _, f := range snap {
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

// label keeps the series whose i-th label value is v.
func label(i int, v string) func([]string) bool {
	return func(labels []string) bool { return labels[i] == v }
}

// booksRuns are the runs the books are balanced on: every shipped
// single-host spec, each pooled policy on a bursty trace, and one chaos
// run under hotc.DefaultResilience.
func booksRuns(t *testing.T) map[string]*Spec {
	t.Helper()
	runs := map[string]*Spec{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if spec.Cluster == nil {
			runs[strings.TrimSuffix(filepath.Base(p), ".json")] = spec
		}
	}
	qr := []FunctionSpec{{Name: "qr", App: "qr-python"}}
	burst := WorkloadSpec{Kind: "burst", Base: 4, Factor: 6, BurstRounds: []int{3, 6, 9}, Rounds: 12}
	for _, pol := range []string{"hotc", "keepalive", "warmup", "histogram"} {
		runs["burst-"+pol] = &Spec{Name: "burst-" + pol, Policy: pol, Seed: 9, KeepAliveSec: 60, Functions: qr, Workload: burst}
	}
	runs["chaos"] = &Spec{
		Name: "chaos", Seed: 1717, Functions: qr, Workload: burst,
		Faults: &hotc.FaultsConfig{Seed: 1717, Rules: []hotc.FaultRule{{
			CreateFailRate: 0.05, ExecCrashRate: 0.02, CorruptRate: 0.02,
			// Every create fails through the second burst round: some
			// requests exhaust their retries, and the breaker trips.
			Bursts: []hotc.FaultBurst{{StartSec: 170, DurationSec: 30, Multiplier: 20}},
		}}},
		Resilience: &ResilienceSpec{Defaults: true},
	}
	return runs
}

// The simulator's books balance: every pool and gateway event is counted
// once, in the registry, so the identities between the request results,
// the gateway's and the pool's families and the views that read them
// back hold exactly, on every run. Provider Acquire calls are counted
// from each request's span: one per acquire attempt (the first, each
// acquire retry, each exec fallback) that did not degrade to a direct
// cold start.
func TestSimBooksBalance(t *testing.T) {
	for name, spec := range booksRuns(t) {
		t.Run(name, func(t *testing.T) {
			d, err := spec.deploy(true)
			if err != nil {
				t.Fatal(err)
			}
			sim := d.(singleHost).Simulation
			out, err := spec.play(d)
			if err != nil {
				t.Fatal(err)
			}
			snap := out.Metrics.Snapshot()

			faults, failed := 0, 0
			for _, r := range out.Results {
				faults += r.Faults
				if r.Err != nil {
					failed++
				}
			}
			if name == "chaos" {
				for _, k := range []string{"acquire.retries", "exec.fallbacks", "quarantines", "breaker.trips",
					"breaker.closes", "degraded.requests", "requests.failed"} {
					if out.Resilience[k] == 0 {
						t.Errorf("the chaos run booked no %s: its identities go unexercised", k)
					}
				}
			}
			if events := family(snap, "hotc_resilience_events_total", nil); faults != events {
				t.Errorf("Σ len(Result.Faults) = %d, Σ hotc_resilience_events_total = %d", faults, events)
			}
			if errs := family(snap, "hotc_requests_total", label(1, "error")); failed != errs || out.Resilience["requests.failed"] != errs {
				t.Errorf("failed results %d, requests.failed %d, Σ hotc_requests_total{outcome=\"error\"} %d",
					failed, out.Resilience["requests.failed"], errs)
			}
			ok := family(snap, "hotc_requests_total", label(1, "ok"))
			if starts := family(snap, "hotc_starts_total", nil); ok != starts || ok != out.Stats.Requests {
				t.Errorf("Σ hotc_requests_total{outcome=\"ok\"} = %d, hotc_starts_total{warm}+{cold} = %d, successful results %d",
					ok, starts, out.Stats.Requests)
			}

			if out.Policy != "default(cold-start)" {
				acquires := 0
				for _, sp := range out.Spans {
					acquires++
					for _, ev := range sp.Events {
						switch ev.Kind {
						case "acquire-retry", "exec-fallback":
							acquires++
						case "degraded-cold":
							acquires--
						}
					}
				}
				hits := family(snap, "hotc_pool_hits_total", nil)
				misses := family(snap, "hotc_pool_misses_total", nil)
				if hits+misses != acquires {
					t.Errorf("pool hits %d + misses %d != %d provider Acquire calls", hits, misses, acquires)
				}
				if leases := family(snap, "hotc_pool_leases_total", nil); leases > misses {
					t.Errorf("%d leases > %d misses: a lease is a miss served by renting", leases, misses)
				}
			}

			// Quiescence: the controller and pingers stop, and every
			// teardown and keep-alive expiry runs out. Every live
			// container is then a pool container.
			sim.Close()
			sim.AdvanceTime(48 * time.Hour)
			if live := family(out.Metrics.Snapshot(), "hotc_pool_live", nil); live != sim.LiveContainers() {
				t.Errorf("Σ hotc_pool_live{key} = %d at quiescence, %d containers live", live, sim.LiveContainers())
			}
		})
	}
}
