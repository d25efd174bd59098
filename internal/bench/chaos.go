package bench

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/faas"
	"hotc/internal/faults"
	"hotc/internal/metrics"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// chaosExecCrashRate and chaosCorruptRate are held constant across the
// sweep so the create-fail axis isolates one failure mode.
const (
	chaosExecCrashRate = 0.01
	chaosCorruptRate   = 0.01
)

// chaosOutcome aggregates one chaos run.
type chaosOutcome struct {
	requests    int
	errors      int
	retries     int
	fallbacks   int
	quarantined int
	trips       int
	closes      int
	degraded    int
	meanMS      float64
	p99MS       float64
	injected    faults.Stats
}

// chaosRun replays a schedule under the given policy and fault config
// with the chaos-ready gateway tuning.
func chaosRun(kind PolicyKind, cfg faults.Config, schedule []trace.Request) chaosOutcome {
	env := NewEnv(kind, EnvOptions{Seed: 1717, PrePull: true, Faults: &cfg})
	defer env.Close()

	gw := env.Gateway
	gw.MaxAcquireRetries = 4
	gw.Backoff = faas.Backoff{Base: 50 * time.Millisecond, Factor: 2, Max: 2 * time.Second}
	gw.ExecRetries = 2
	gw.BreakerThreshold = 5
	gw.BreakerOpenFor = 30 * time.Second

	app := workload.QRApp(workload.Python)
	if err := env.Deploy("qr", config.Runtime{Image: "python:3.8", Network: "nat"}, app); err != nil {
		panic(err)
	}
	results, err := env.Replay(schedule, singleClass("qr"))
	if err != nil {
		panic(err)
	}

	var out chaosOutcome
	var lat metrics.Series
	for _, r := range results {
		out.requests++
		if r.Err != nil {
			out.errors++
			continue
		}
		lat.AddDuration(r.Timestamps.Total())
	}
	out.meanMS = lat.Mean()
	out.p99MS = lat.P99()

	c := env.ResilienceCounters()
	out.retries = c[faas.CounterAcquireRetries]
	out.fallbacks = c[faas.CounterExecFallbacks]
	out.trips = c[faas.CounterBreakerTrips]
	out.closes = c[faas.CounterBreakerCloses]
	out.degraded = c[faas.CounterDegradedRequests]
	out.quarantined = c[faas.CounterQuarantines]
	if env.HotC != nil {
		// For a pooled policy the authoritative count is the pool's:
		// it covers both gateway discards and health-check catches.
		out.quarantined = env.PoolStats().Quarantined
	}
	out.injected = env.Faults.Stats()
	return out
}

// chaosRates builds the steady-state fault config for a create-fail
// rate.
func chaosRates(createFailRate float64) faults.Config {
	return faults.Config{
		Seed: 1717,
		Rules: []faults.Rule{{
			CreateFailRate: createFailRate,
			ExecCrashRate:  chaosExecCrashRate,
			CorruptRate:    chaosCorruptRate,
		}},
	}
}

// Chaos sweeps injected fault rates under HotC and the cold baseline,
// reporting success rate, retry/fallback/quarantine activity and tail
// latency, then simulates a full registry outage to exercise the
// circuit breaker. The headline: no client-visible error escapes at
// any swept rate — under sustained faults HotC degrades towards
// cold-start-always latency rather than failing requests, and reuse
// additionally shields it from create-path outages that hammer the
// cold baseline.
func Chaos() *Report {
	r := NewReport("chaos", "fault injection: resilience under failing creates, crashing execs and corrupted runtimes")

	// (1) Rate sweep on a bursty workload, so both policies must keep
	// creating containers (a purely serial load would let HotC dodge
	// the create path entirely after the first request).
	burst := trace.Burst{Base: 4, Factor: 8, BurstRounds: []int{3, 6, 9}, Rounds: 12, Interval: 30 * time.Second}.Generate()
	t := r.NewTable(
		fmt.Sprintf("chaos sweep (bursty workload, %d requests; exec-crash %.0f%%, corruption %.0f%% throughout)",
			len(burst), 100*chaosExecCrashRate, 100*chaosCorruptRate),
		"policy", "create-fail", "requests", "errors", "success",
		"retries", "fallbacks", "quarantined", "mean(ms)", "p99(ms)")

	rates := []float64{0, 0.02, 0.05, 0.10}
	var hotcAt5, coldAt5 chaosOutcome
	for _, kind := range []PolicyKind{PolicyHotC, PolicyCold} {
		for _, rate := range rates {
			out := chaosRun(kind, chaosRates(rate), burst)
			success := 1.0
			if out.requests > 0 {
				success = float64(out.requests-out.errors) / float64(out.requests)
			}
			t.AddRow(string(kind), pct(rate),
				fmt.Sprintf("%d", out.requests), fmt.Sprintf("%d", out.errors), pct(success),
				fmt.Sprintf("%d", out.retries), fmt.Sprintf("%d", out.fallbacks),
				fmt.Sprintf("%d", out.quarantined), msF(out.meanMS), msF(out.p99MS))
			if rate == 0.05 {
				if kind == PolicyHotC {
					hotcAt5 = out
				} else {
					coldAt5 = out
				}
			}
		}
	}

	// (2) Registry outage: only the create path breaks — a 5% base
	// create-fail rate spikes to 100% for a minute (a burst multiplies
	// every rate in its rule, so the outage rule carries no exec or
	// corruption faults). Requests needing a create exhaust their
	// retries; the breaker trips and the gateway degrades, then
	// recovers once the window passes. HotC's warm pool never touches
	// the broken create path and rides the outage out.
	outage := faults.Config{
		Seed: 1717,
		Rules: []faults.Rule{{
			CreateFailRate: 0.05,
			Bursts:         []faults.Burst{{StartSec: 120, DurationSec: 60, Multiplier: 20}},
		}},
	}
	serial := trace.Serial{Interval: 2 * time.Second, Count: 150}.Generate()
	to := r.NewTable("registry outage (create-fail 100% from t=120s to t=180s, serial 150 req @2s)",
		"policy", "requests", "errors", "success", "retries",
		"breaker-trips", "breaker-closes", "degraded", "p99(ms)")
	var hotcOut, coldOut chaosOutcome
	for _, kind := range []PolicyKind{PolicyHotC, PolicyCold} {
		out := chaosRun(kind, outage, serial)
		if kind == PolicyHotC {
			hotcOut = out
		} else {
			coldOut = out
		}
		success := 1.0
		if out.requests > 0 {
			success = float64(out.requests-out.errors) / float64(out.requests)
		}
		to.AddRow(string(kind), fmt.Sprintf("%d", out.requests), fmt.Sprintf("%d", out.errors),
			pct(success), fmt.Sprintf("%d", out.retries),
			fmt.Sprintf("%d", out.trips), fmt.Sprintf("%d", out.closes),
			fmt.Sprintf("%d", out.degraded), msF(out.p99MS))
	}

	r.Notef("at 5%% create-fail + %.0f%% exec-crash HotC completes %d/%d requests (%d injected faults absorbed by %d retries, %d fallbacks, %d quarantines)",
		100*chaosExecCrashRate, hotcAt5.requests-hotcAt5.errors, hotcAt5.requests,
		hotcAt5.injected.Total(), hotcAt5.retries, hotcAt5.fallbacks, hotcAt5.quarantined)
	r.Notef("degradation, not failure: HotC p99 under 5%% faults is %sms vs the cold baseline's %sms",
		msF(hotcAt5.p99MS), msF(coldAt5.p99MS))
	r.Notef("outage: runtime reuse shields HotC (%d errors) where cold-start-always depends on the broken create path (%d errors); the breaker tripped %d time(s) and closed %d time(s) after the window",
		hotcOut.errors, coldOut.errors, coldOut.trips, coldOut.closes)
	return r
}
