package hotc_test

// End-to-end integration tests across the public API: whole-day trace
// replays under every policy, profile comparisons, chains and
// concurrency limits composed together. These complement the
// per-package unit tests by asserting cross-policy orderings the paper
// depends on.

import (
	"fmt"
	"testing"
	"time"

	"hotc"
)

// replayCampus runs two hours of the scaled campus trace under a
// policy and returns the summary plus the simulation for inspection.
func replayCampus(t *testing.T, policy hotc.Policy) (hotc.Stats, *hotc.Simulation) {
	t.Helper()
	sim, err := hotc.NewSimulation(hotc.Config{
		Policy:          policy,
		Seed:            5,
		KeepAliveWindow: 15 * time.Minute,
		ControlInterval: time.Minute,
		LocalImages:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	app, err := hotc.AppQR("python")
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Deploy(hotc.FunctionSpec{
		Name:    "svc",
		Runtime: hotc.Runtime{Image: "python:3.8"},
		App:     app,
	}); err != nil {
		t.Fatal(err)
	}
	results, err := sim.Replay(hotc.CampusWorkload(9, 30, 120, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s request failed: %v", policy, r.Err)
		}
	}
	return hotc.Summarize(results), sim
}

// The paper's central ordering: HotC ≈ always-warm policies on latency,
// and both beat cold by a wide margin.
func TestIntegrationPolicyOrderingOnCampusTrace(t *testing.T) {
	cold, _ := replayCampus(t, hotc.PolicyCold)
	keep, _ := replayCampus(t, hotc.PolicyKeepAlive)
	hot, hotSim := replayCampus(t, hotc.PolicyHotC)

	if cold.Requests == 0 || cold.Requests != keep.Requests || keep.Requests != hot.Requests {
		t.Fatalf("request counts diverge: %d/%d/%d", cold.Requests, keep.Requests, hot.Requests)
	}
	if hot.MeanMS > 0.3*cold.MeanMS {
		t.Fatalf("HotC mean %.1fms should be well below cold %.1fms", hot.MeanMS, cold.MeanMS)
	}
	if hot.MeanMS > 1.3*keep.MeanMS {
		t.Fatalf("HotC mean %.1fms should be near keep-alive %.1fms", hot.MeanMS, keep.MeanMS)
	}
	// Cold starts: cold policy pays one per request; HotC only a few.
	if cold.ColdStarts != cold.Requests {
		t.Fatalf("cold policy cold starts = %d of %d", cold.ColdStarts, cold.Requests)
	}
	if float64(hot.ColdStarts) > 0.1*float64(hot.Requests) {
		t.Fatalf("HotC cold starts = %d of %d, want < 10%%", hot.ColdStarts, hot.Requests)
	}
	// The HotC pool stays modest on this single-function trace.
	if live := hotSim.LiveContainers(); live > 10 {
		t.Fatalf("HotC retained %d containers", live)
	}
}

// The same workload on the edge profile: everything is slower, but the
// reuse benefit survives (Fig. 8's argument).
func TestIntegrationEdgeProfileOrdering(t *testing.T) {
	run := func(policy hotc.Policy) hotc.Stats {
		sim, err := hotc.NewSimulation(hotc.Config{
			Profile:     hotc.ProfileEdgePi,
			Policy:      policy,
			Seed:        6,
			LocalImages: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		app, _ := hotc.AppQR("python")
		if err := sim.Deploy(hotc.FunctionSpec{Name: "svc", Runtime: hotc.Runtime{Image: "python:3.8"}, App: app}); err != nil {
			t.Fatal(err)
		}
		results, err := sim.Replay(hotc.SerialWorkload(time.Minute, 10), nil)
		if err != nil {
			t.Fatal(err)
		}
		return hotc.Summarize(results)
	}
	cold := run(hotc.PolicyCold)
	hot := run(hotc.PolicyHotC)
	if hot.MeanMS >= cold.MeanMS {
		t.Fatalf("edge HotC %.1fms should beat cold %.1fms", hot.MeanMS, cold.MeanMS)
	}
	// Edge cold latency dwarfs the server's (scales ~4-10x).
	serverCold, _ := replayCampus(t, hotc.PolicyCold)
	if cold.MeanMS < serverCold.MeanMS {
		t.Fatalf("edge cold %.1fms should exceed server cold %.1fms", cold.MeanMS, serverCold.MeanMS)
	}
}

// Chains and concurrency limits compose: a capped pipeline stage
// serializes whole-chain traversals without deadlock.
func TestIntegrationChainWithConcurrencyLimit(t *testing.T) {
	sim, err := hotc.NewSimulation(hotc.Config{Policy: hotc.PolicyHotC, LocalImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	app, _ := hotc.AppQR("python")
	stages := []string{"ingest", "transform"}
	for i, name := range stages {
		spec := hotc.FunctionSpec{
			Name:    name,
			Runtime: hotc.Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("S=%d", i)}},
			App:     app,
		}
		if i == 1 {
			spec.MaxConcurrency = 1 // bottleneck stage
		}
		if err := sim.Deploy(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Three chains arrive simultaneously; the bottleneck stage must
	// serialize them but everything completes.
	w := hotc.Workload{{At: 0}, {At: 0}, {At: 0}}
	results, err := sim.ReplayChain(w, stages)
	if err != nil {
		t.Fatal(err)
	}
	var latencies []time.Duration
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("chain %d: %v", i, r.Err)
		}
		if r.Stages != 2 {
			t.Fatalf("chain %d stages = %d", i, r.Stages)
		}
		latencies = append(latencies, r.Latency)
	}
	// Serialization at the bottleneck spreads completion times.
	same := latencies[0] == latencies[1] && latencies[1] == latencies[2]
	if same {
		t.Fatalf("expected spread from the capped stage, got %v", latencies)
	}
}

// Relaxed matching through the full public surface.
func TestIntegrationRelaxedMatching(t *testing.T) {
	sim, err := hotc.NewSimulation(hotc.Config{
		Policy:                hotc.PolicyHotC,
		EnableRelaxedMatching: true,
		LocalImages:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	app, _ := hotc.AppQR("python")
	for i := 0; i < 5; i++ {
		err := sim.Deploy(hotc.FunctionSpec{
			Name:    fmt.Sprintf("fn-%d", i),
			Runtime: hotc.Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("V=%d", i)}},
			App:     app,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin across the five distinct-env functions, serially.
	var w hotc.Workload
	for i := 0; i < 10; i++ {
		w = append(w, hotc.Workload{{At: time.Duration(i) * 30 * time.Second, Class: i % 5, Round: i}}...)
	}
	results, err := sim.Replay(w, func(c int) string { return fmt.Sprintf("fn-%d", c) })
	if err != nil {
		t.Fatal(err)
	}
	st := hotc.Summarize(results)
	// With relaxed matching only the very first request needs a fresh
	// container; the rest adjust the same runtime at exec time.
	if st.ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1 with relaxed matching", st.ColdStarts)
	}
}

// The same seed gives byte-identical latency sequences: the
// determinism guarantee the reproduction rests on.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() []time.Duration {
		sim, err := hotc.NewSimulation(hotc.Config{Policy: hotc.PolicyHotC, Seed: 77, LocalImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		app, _ := hotc.AppQR("node")
		if err := sim.Deploy(hotc.FunctionSpec{Name: "svc", Runtime: hotc.Runtime{Image: "node:10"}, App: app}); err != nil {
			t.Fatal(err)
		}
		results, err := sim.Replay(hotc.BurstWorkload(4, 5, []int{2}, 5, 20*time.Second), nil)
		if err != nil {
			t.Fatal(err)
		}
		var lats []time.Duration
		for _, r := range results {
			lats = append(lats, r.Latency)
		}
		return lats
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths diverge")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

// Satellite of the resilience PR: at a 5% create-fail + 1% exec-crash
// rate HotC must complete every request — faults are absorbed by
// retries, fallbacks and quarantine, never surfaced to the client.
func TestIntegrationChaosZeroClientErrors(t *testing.T) {
	res := hotc.DefaultResilience()
	sim, err := hotc.NewSimulation(hotc.Config{
		Policy:      hotc.PolicyHotC,
		Seed:        13,
		LocalImages: true,
		Faults: &hotc.FaultsConfig{
			Seed: 13,
			Rules: []hotc.FaultRule{{
				CreateFailRate: 0.05,
				ExecCrashRate:  0.01,
			}},
		},
		Resilience: &res,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	app, err := hotc.AppQR("python")
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Deploy(hotc.FunctionSpec{
		Name:    "svc",
		Runtime: hotc.Runtime{Image: "python:3.8"},
		App:     app,
	}); err != nil {
		t.Fatal(err)
	}
	// Bursty arrivals keep the create path hot, so the 5% rate actually
	// bites; a serial trickle would hide behind one warm container.
	results, err := sim.Replay(hotc.BurstWorkload(3, 6, []int{2, 5, 8}, 10, 20*time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	troubled := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d surfaced an error to the client: %v", i, r.Err)
		}
		if r.Faults > 0 {
			troubled++
		}
	}
	st := sim.FaultStats()
	if st.Total() == 0 {
		t.Fatal("no faults injected; the test exercises nothing")
	}
	if st.CreateFails == 0 {
		t.Fatal("no create faults at a 5% rate over a bursty workload")
	}
	if troubled == 0 {
		t.Fatal("faults were injected but no request carries a fault annotation")
	}
	counters := sim.ResilienceCounters()
	if counters["acquire.retries"] == 0 {
		t.Fatalf("create faults were injected but the gateway never retried: %v", counters)
	}
	if counters["requests.failed"] != 0 {
		t.Fatalf("gateway recorded failed requests: %v", counters)
	}
}

// A jittered simulation is a function of its seed: fresh replays of the
// same multi-key workload must agree to the last bit, request by
// request. Every control tick draws boot-time jitter for each key it
// prewarms, so this holds only while ticks visit the keys in a fixed
// order (they walk the sorted key list, not the Go map).
func TestSimDeterminismUnderJitter(t *testing.T) {
	app, err := hotc.AppQR("python")
	if err != nil {
		t.Fatal(err)
	}
	replay := func() []hotc.RequestResult {
		sim, err := hotc.NewSimulation(hotc.Config{Seed: 42, LocalImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		for i := 0; i < 4; i++ {
			if err := sim.Deploy(hotc.FunctionSpec{
				Name:    fmt.Sprintf("fn%d", i),
				Runtime: hotc.Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("TENANT=%d", i)}},
				App:     app,
			}); err != nil {
				t.Fatal(err)
			}
		}
		results, err := sim.Replay(hotc.CampusWorkload(7, 1.0, 240, 4),
			func(class int) string { return fmt.Sprintf("fn%d", class%4) })
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	want := replay()
	wantStats := hotc.Summarize(want)
	if wantStats.Requests == 0 || wantStats.ColdStarts == 0 || wantStats.Reused == 0 {
		t.Fatalf("replay exercises nothing: %+v", wantStats)
	}
	for run := 1; run < 4; run++ {
		got := replay()
		if st := hotc.Summarize(got); st != wantStats {
			t.Fatalf("replay %d summary %+v differs from the first %+v", run, st, wantStats)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replay %d request %d = %+v, first replay %+v", run, i, got[i], want[i])
			}
		}
	}
}
