package main

import (
	"fmt"
	"time"
)

// refs are untraced p50 latencies (ms) by workload name, which the
// derived per-layer metrics subtract from.
type refs map[string]float64

// reduce turns a measured window into the workload's report section.
// A traced pass hands in the direct layer timings and the untraced
// references, and gets the per-layer metrics too.
func reduce(wl *workload, win *window, direct map[string]metric, ref refs) *workloadResult {
	res := &workloadResult{Name: wl.name, Why: wl.why, WindowS: win.seconds, Checks: win.checks}
	e2e := newMetricSet(endToEndDefs)
	e2e.set("setup_s", measured, median(win.setupS), len(win.setupS), win.setupS)

	var layers *metricSet
	if direct != nil {
		layers = newMetricSet(perLayerDefs)
		for name, m := range direct {
			layers.m[name] = m
		}
	}
	if wl.name == "sim_campus" {
		reduceSim(res, win, e2e, layers)
	} else {
		reduceLive(wl, res, win, e2e, layers, ref)
	}
	res.EndToEnd = e2e.list("not measured")
	if layers != nil {
		reduceProc(res, win, layers)
		res.PerLayer = layers.list("no samples: " + wl.name + " bypasses this layer")
	}
	return res
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func reduceLive(wl *workload, res *workloadResult, win *window, e2e, layers *metricSet, ref refs) {
	// Verified requests only carry latency; everything attempted counts
	// against error_fraction.
	var lat, lag []float64
	var done []int64
	var cold []float64 // 1 per non-warm verified request, for the segment spread
	byMode := make([][]float64, numModes)
	nodes := make(map[string]int)
	attempts := 0
	res.Attempted = len(win.samples)
	for _, s := range win.samples {
		if !s.ok {
			res.Failed++
			continue
		}
		l, g := dueLatency(s.due, s.sent, s.done)
		lat = append(lat, ms(l))
		lag = append(lag, ms(g))
		done = append(done, s.done)
		byMode[s.mode] = append(byMode[s.mode], ms(l))
		c := 0.0
		if s.mode != modeWarm {
			c = 1
		}
		cold = append(cold, c)
		nodes[s.node]++
		attempts += s.attempts
	}
	res.Modes = make(map[string]int)
	for m, l := range byMode {
		if len(l) > 0 {
			res.Modes[modeNames[m]] = len(l)
		}
	}
	n := len(lat)
	if n == 0 {
		res.Checks = append(res.Checks, "no request succeeded")
		return
	}
	sorted := sortedCopy(lat)
	// cold_churn's latencies are the cost model's boot sleeps plus the
	// measured overhead around them.
	latKind := measured
	if win.churn {
		latKind = modelled
	}

	// Throughput, p50 and mean are the median over the window's
	// segments: the sandbox freezes the whole process for 80-400 ms now
	// and then, and one freeze in a 600-request window moves a plain
	// mean by a quarter. The p99 needs every sample it can get and is
	// taken over the whole window.
	tput := segmentThroughput(done, segments)
	e2e.set("throughput_rps", measured, median(tput), n, tput)
	p50s := segmentApply(lat, segments, p50)
	p50ms := median(p50s)
	e2e.set("latency_p50_ms", latKind, p50ms, n, p50s)
	if v, ok, why := percentileFloor(sorted, 0.99); ok {
		e2e.set("latency_p99_ms", latKind, v, n, segmentApply(lat, segments, func(v []float64) float64 { return percentile(sortedCopy(v), 0.99) }))
	} else {
		e2e.refuse("latency_p99_ms", latKind, why)
	}
	means := segmentApply(lat, segments, mean)
	e2e.set("latency_mean_ms", latKind, median(means), n, means)
	e2e.set("cold_fraction", measured, mean(cold), n, segmentApply(cold, segments, mean))
	e2e.set("error_fraction", measured, float64(res.Failed)/float64(res.Attempted), res.Attempted, nil)
	if layers == nil {
		return
	}

	count := func(name string, v int) { layers.set(name, measured, float64(v), v, nil) }
	ratio := func(name string, num, den int) {
		if den > 0 {
			layers.set(name, measured, float64(num)/float64(den), den, nil)
		}
	}
	b, a := win.before, win.after

	// live: phases from the public trace route, Stats deltas, failures.
	for _, p := range phaseNames {
		if v := win.phases[p]; len(v) > 0 {
			layers.set("live.phase_"+p+"_us", measured, p50(v), len(v), nil)
		}
	}
	count("live.requests", a.requests-b.requests)
	count("live.reused", a.reused-b.reused)
	count("live.cold_starts", a.coldStarts-b.coldStarts)
	count("live.prewarmed", a.prewarmed-b.prewarmed)
	count("live.expired", a.expired-b.expired)
	count("live.retired", a.retired-b.retired)
	count("live.canceled", a.canceled-b.canceled)
	ratio("live.reuse_ratio", a.reused-b.reused, a.requests-b.requests)
	count("live.boot_failures", a.bootFailures-b.bootFailures)
	count("live.proxy_failures", a.proxyFailures-b.proxyFailures)
	modeMetrics := func(mode int, fraction, p50name string) {
		ratio(fraction, len(byMode[mode]), n)
		if l := byMode[mode]; len(l) > 0 {
			layers.set(p50name, latKind, p50(l), len(l), nil)
		}
	}
	modeMetrics(modeCold, "live.fullcold_fraction", "live.fullcold_p50_ms")
	if un, ok := ref[wl.name]; ok {
		layers.set("live.tracing_overhead_us", measured, (p50ms-un)*1e3, n, nil)
	}
	if un, ok := ref["warm_small"]; ok && wl.name == "warm_small" {
		if rtt := layers.m["live.watchdog_rtt_us"]; rtt.Value != nil {
			layers.set("live.gateway_overhead_us", measured, un*1e3-*rtt.Value, n, nil)
		}
	}

	// router: only a routed reply carries these headers.
	if win.routed {
		small, okS := ref["warm_small"]
		routed, okR := ref["warm_routed"]
		if okS && okR {
			layers.set("router.hop_us", measured, (routed-small)*1e3, n, nil)
		}
		layers.set("router.attempts_mean", measured, float64(attempts)/float64(n), n, nil)
		top := 0
		for _, c := range nodes {
			top = max(top, c)
		}
		ratio("router.node_share_max", top, n)
		layers.set("router.spills", measured, a.spills-b.spills, n, nil)
	}

	// admission: occupancy at the window's end and refusals during it.
	// Both must stay 0 on every workload here.
	count("admission.queued", a.admQueued)
	count("admission.rejected", a.admRejected-b.admRejected)

	// prefork, sharing, image: cold_churn's acquisition ladder.
	if win.churn {
		count("prefork.refill_boots", a.refillBoots-b.refillBoots)
		count("prefork.generic_idle_end", a.genericIdle)
		modeMetrics(modeGeneric, "prefork.generic_fraction", "prefork.generic_p50_ms")
		ratio("prefork.pool_hit_ratio", len(byMode[modeGeneric]), len(byMode[modeGeneric])+len(byMode[modeCold]))
		granted := a.leasesGranted - b.leasesGranted
		none := a.leasesNoCandidate - b.leasesNoCandidate
		denied := a.leasesDenied - b.leasesDenied
		count("sharing.leases_granted", granted)
		count("sharing.leases_no_candidate", none)
		count("sharing.leases_denied", denied)
		ratio("sharing.grant_ratio", granted, granted+none+denied)
		modeMetrics(modeRented, "sharing.rented_fraction", "sharing.rented_p50_ms")
		// 0 by construction: the layer cache is off so that a generic
		// handoff pays its pull.
		layers.set("image.pull_skipped_mb", measured, a.pullSkippedMB-b.pullSkippedMB, n, nil)

		lagSorted := sortedCopy(lag)
		lagMax := lagSorted[len(lagSorted)-1]
		layers.set("client.generator_lag_max_ms", measured, lagMax, n, nil)
		if v, ok, why := percentileFloor(lagSorted, 0.99); ok {
			layers.set("client.generator_lag_p99_ms", measured, v, n, nil)
		} else {
			// Too few requests for a p99, but whether the generator kept
			// up must still be answerable: the maximum bounds it.
			layers.set("client.generator_lag_p99_ms", measured, lagMax, n, nil)
			layers.note("client.generator_lag_p99_ms", why+": this is the maximum, an upper bound")
		}
	}
	if v, ok, why := percentileFloor(sorted, 0.999); ok {
		layers.set("client.latency_p999_ms", latKind, v, n, nil)
	} else {
		layers.refuse("client.latency_p999_ms", latKind, why)
	}
	layers.set("obs.scrape_ms", measured, win.scrapeMS, 1, nil)
}

func reduceSim(res *workloadResult, win *window, e2e, layers *metricSet) {
	out := win.outputs
	res.Modelled = &out
	res.Attempted = out.Requests + out.Errors
	res.Failed = out.Errors
	n := len(win.replayNs)
	wallMS := make([]float64, n)
	tput := make([]float64, n)
	perReq := make([]float64, n)
	for i, ns := range win.replayNs {
		wallMS[i] = ns / 1e6
		tput[i] = float64(res.Attempted) / (ns / 1e9)
		perReq[i] = ns / float64(res.Attempted)
	}
	// The user of the simulator waits for a replay: that wall time is
	// the latency here, and it is measured. The modelled request
	// latencies are outputs (res.Modelled), checked for exact repeat.
	e2e.set("throughput_rps", measured, median(tput), n, tput)
	e2e.set("latency_p50_ms", measured, median(wallMS), n, wallMS)
	_, _, why := percentileFloor(sortedCopy(wallMS), 0.99)
	e2e.refuse("latency_p99_ms", measured, why)
	// Each replay is one segment holding one sample, so the median over
	// segments of the segment mean is the median replay again.
	e2e.set("latency_mean_ms", measured, median(wallMS), n, wallMS)
	e2e.set("cold_fraction", modelled, float64(out.ColdStarts)/float64(max(out.Requests, 1)), out.Requests, nil)
	e2e.set("error_fraction", modelled, float64(out.Errors)/float64(max(res.Attempted, 1)), res.Attempted, nil)
	if layers == nil {
		return
	}
	if acq := out.PoolHits + out.PoolMisses; acq > 0 {
		layers.set("pool.hit_ratio", modelled, out.PoolHits/acq, int(acq), nil)
	}
	layers.set("core.replay_ns_per_req", measured, median(perReq), n, perReq)
	layers.set("trace.campus_gen_ms", measured, median(win.genMS), len(win.genMS), win.genMS)
	layers.set("obs.scrape_ms", measured, win.scrapeMS, 1, nil)
}

// reduceProc is the process-wide cost per request over the window,
// from getrusage and runtime.MemStats.
func reduceProc(res *workloadResult, win *window, layers *metricSet) {
	n := res.Attempted
	if n == 0 {
		return
	}
	b, a := win.procBefore, win.procAfter
	per := func(name string, total float64) { layers.set(name, measured, total/float64(n), n, nil) }
	per("proc.cpu_us_per_req", float64(a.cpu-b.cpu)/float64(time.Microsecond))
	per("proc.allocs_per_req", float64(a.mallocs-b.mallocs))
	per("proc.bytes_per_req", float64(a.bytes-b.bytes))
	layers.set("proc.gc_pause_ms", measured, float64(a.gcPause-b.gcPause)/float64(time.Millisecond), n, nil)
	layers.set("proc.rss_peak_mb", measured, a.rssMB, 1, nil)
	layers.set("proc.goroutines_end", measured, float64(win.goroutines), 1, nil)
}

// checkLayerIdentity verifies, on cold_churn, that the boot-mode
// fractions the three layers report add up to the end-to-end cold
// fraction: every non-warm request is attributed to exactly one tier.
func checkLayerIdentity(res *workloadResult) {
	get := func(ms []metric, name string) float64 {
		for _, m := range ms {
			if m.Name == name && m.Value != nil {
				return *m.Value
			}
		}
		return 0
	}
	sum := get(res.PerLayer, "live.fullcold_fraction") + get(res.PerLayer, "prefork.generic_fraction") + get(res.PerLayer, "sharing.rented_fraction")
	if cf := get(res.EndToEnd, "cold_fraction"); sum-cf > 1e-9 || cf-sum > 1e-9 {
		res.Checks = append(res.Checks, fmt.Sprintf("fullcold+generic+rented fractions %.6f != cold_fraction %.6f", sum, cf))
	}
}
