// Command hotc-load is an open-loop HTTP load generator for a running
// hotcd or hotc-router: it fires requests at a fixed arrival rate
// regardless of how fast responses come back (the arrival process does
// not slow down when the server does, which is what makes saturation
// visible), and reports goodput, rejection mix and latency percentiles
// as JSON. It is only a client — the daemon under test is configured by
// hotcd's own flags:
//
//	hotcd -addr 127.0.0.1:8080 -max-inflight 8 -queue-depth 16 &
//	hotc-load -target http://127.0.0.1:8080 -function sleep -rate 400 -duration 10s
//
// Tenants split the arrival stream by share, e.g. an abusive tenant
// and a steady one:
//
//	hotc-load -tenants burst:3,steady:1 -deadline-ms 250 ...
//
// Exit status is non-zero when an -assert-* bound is violated, so CI
// can use a short run as a smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotc/internal/metrics"
)

type tenantShare struct {
	name  string
	share int
}

// result is the JSON report. Fractions are of sent requests; goodput
// counts 2xx only.
type result struct {
	Target       string           `json:"target"`
	Function     string           `json:"function"`
	RateRPS      float64          `json:"rate_rps"`
	DurationS    float64          `json:"duration_s"`
	Sent         int64            `json:"sent"`
	ClientDrops  int64            `json:"client_drops"`
	Status       map[string]int64 `json:"status"`
	GoodputRPS   float64          `json:"goodput_rps"`
	OKFraction   float64          `json:"ok_fraction"`
	RejectedFrac float64          `json:"rejected_fraction"`
	FivexxFrac   float64          `json:"fivexx_fraction"`
	RetryAfter   int64            `json:"retry_after_present"`
	// ColdStarts/WarmHits classify served (2xx) responses by the
	// X-Hotc-Reused header the gateway stamps on every proxied reply;
	// ColdFraction is ColdStarts over the classified total.
	ColdStarts   int64   `json:"cold_starts"`
	WarmHits     int64   `json:"warm_hits"`
	ColdFraction float64 `json:"cold_fraction"`
	// BootModes splits served (2xx) responses by how their instance was
	// acquired, from the X-Hotc-Boot header: "warm" (reused), "rented"
	// (leased from another function), "generic" (prefork handoff),
	// "cold" (full boot). ModeFractions are of the classified total and
	// LatencyByModeMS carries per-mode percentiles.
	BootModes       map[string]int64              `json:"boot_modes,omitempty"`
	ModeFractions   map[string]float64            `json:"mode_fractions,omitempty"`
	LatencyByModeMS map[string]map[string]float64 `json:"latency_ms_by_mode,omitempty"`
	LatencyMS       map[string]float64            `json:"latency_ms"`
	// LatencyColdMS/LatencyWarmMS split the 2xx percentiles by cold vs
	// warm.
	LatencyColdMS map[string]float64 `json:"latency_ms_cold,omitempty"`
	LatencyWarmMS map[string]float64 `json:"latency_ms_warm,omitempty"`
	Tenants       map[string]*tstats `json:"tenants,omitempty"`
	// SlowestTraces and FailedTraces carry the X-Hotc-Trace-Id echoed
	// by a tracing gateway for the slowest successes and the first
	// failures: paste one into
	// `curl $target/system/trace | grep <id>` (or `hotc-trace spans`)
	// to see that exact request's span.
	SlowestTraces []traceRef `json:"slowest_traces,omitempty"`
	FailedTraces  []traceRef `json:"failed_traces,omitempty"`
}

type tstats struct {
	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Rejected int64 `json:"rejected"`
	// LatencyMS holds this tenant's own 2xx latency percentiles —
	// aggregate percentiles hide exactly the per-tenant unfairness a
	// tenant split exists to measure.
	LatencyMS map[string]float64 `json:"latency_ms,omitempty"`
}

// traceRef points a report reader at one request's span.
type traceRef struct {
	TraceID   string  `json:"trace_id"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	Tenant    string  `json:"tenant,omitempty"`
}

func main() {
	var (
		target     = flag.String("target", "http://127.0.0.1:8080", "base URL of a running hotcd or hotc-router")
		function   = flag.String("function", "sleep", "function to invoke (with -functions > 1: the name prefix)")
		numFns     = flag.Int("functions", 1, "number of function copies to deploy and round-robin over (<name>-0..<name>-N-1); > 1 spreads arrivals so cold starts recur")
		handler    = flag.String("deploy-handler", "sleep", "builtin handler to deploy as -function before the run (empty = skip deploy)")
		coldMs     = flag.Int("cold-start-ms", 25, "deploy-time simulated cold start")
		imageRef   = flag.String("image", "", "deploy-time container image reference from the standard catalog (e.g. python:3.8); functions sharing base layers skip most of the pull phase")
		rate       = flag.Float64("rate", 200, "open-loop arrival rate, requests/second")
		duration   = flag.Duration("duration", 5*time.Second, "how long to generate load")
		body       = flag.String("body", "20", "request body (for the sleep builtin: service time in ms)")
		tenantsArg = flag.String("tenants", "", "name:share pairs splitting arrivals, e.g. burst:3,steady:1")
		deadlineMs = flag.Int("deadline-ms", 0, "X-Hotc-Deadline-Ms header on every request (0 = none)")
		outFile    = flag.String("out", "", "write the JSON report here instead of stdout")
		maxOut     = flag.Int("max-outstanding", 4096, "client-side cap on concurrent requests; arrivals past it are dropped and counted")
		fnWeights  = flag.String("fn-weights", "", "comma-separated integer weights skewing arrivals across the -functions copies, e.g. 8,1,1,1 (empty = uniform round-robin)")
		// CI assertions.
		assertMinOK  = flag.Float64("assert-min-ok", -1, "exit 1 if ok_fraction falls below this (-1 = off)")
		assertMax5xx = flag.Float64("assert-max-5xx", -1, "exit 1 if fivexx_fraction exceeds this (-1 = off)")
	)
	flag.Parse()

	tenants, err := parseTenants(*tenantsArg)
	if err != nil {
		fatal(err)
	}

	names := []string{*function}
	if *numFns > 1 {
		names = make([]string, *numFns)
		for i := range names {
			names[i] = fmt.Sprintf("%s-%d", *function, i)
		}
	}
	if *handler != "" {
		for _, n := range names {
			deploy(*target, n, *handler, *coldMs, *imageRef)
		}
	}

	weights, err := parseWeights(*fnWeights, len(names))
	if err != nil {
		fatal(err)
	}

	res := run(*target, names, weights, *body, tenants, *rate, *duration, *deadlineMs, *maxOut)
	enc, _ := json.MarshalIndent(res, "", "  ")
	enc = append(enc, '\n')
	if *outFile != "" {
		if err := os.WriteFile(*outFile, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("hotc-load: wrote %s (ok=%.3f rejected=%.3f 5xx=%.3f cold=%.3f goodput=%.1f/s)\n",
			*outFile, res.OKFraction, res.RejectedFrac, res.FivexxFrac, res.ColdFraction, res.GoodputRPS)
	} else {
		os.Stdout.Write(enc)
	}

	if *assertMinOK >= 0 && res.OKFraction < *assertMinOK {
		fatal(fmt.Errorf("ok_fraction %.3f below asserted minimum %.3f", res.OKFraction, *assertMinOK))
	}
	if *assertMax5xx >= 0 && res.FivexxFrac > *assertMax5xx {
		fatal(fmt.Errorf("fivexx_fraction %.3f above asserted maximum %.3f", res.FivexxFrac, *assertMax5xx))
	}
}

// parseWeights parses -fn-weights into one positive integer per
// function; empty means uniform.
func parseWeights(s string, n int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-fn-weights has %d entries for %d functions", len(parts), n)
	}
	out := make([]int, n)
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -fn-weights entry %q (want a positive integer)", p)
		}
		out[i] = w
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotc-load:", err)
	os.Exit(1)
}

func parseTenants(s string) ([]tenantShare, error) {
	if s == "" {
		return nil, nil
	}
	var out []tenantShare
	for _, part := range strings.Split(s, ",") {
		name, shareStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		share := 1
		if ok {
			n, err := strconv.Atoi(shareStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad tenant share %q (want name:positive-int)", part)
			}
			share = n
		}
		if name == "" {
			return nil, fmt.Errorf("bad tenant spec %q", part)
		}
		out = append(out, tenantShare{name, share})
	}
	return out, nil
}

func deploy(base, name, handler string, coldMs int, image string) {
	spec := fmt.Sprintf(`{"name":%q,"handler":%q,"coldStartMs":%d`, name, handler, coldMs)
	if image != "" {
		spec += fmt.Sprintf(`,"image":%q`, image)
	}
	spec += "}"
	resp, err := http.Post(base+"/system/functions", "application/json", strings.NewReader(spec))
	if err != nil {
		fatal(fmt.Errorf("deploy %s: %w", name, err))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// An already-deployed function (409/400 from a previous run) is
	// fine; anything else would surface as request failures below.
}

// run fires the open-loop arrival schedule: request i departs at
// start + i/rate, no matter what happened to requests 0..i-1. With
// multiple functions arrivals round-robin across them; weights skew
// the cycle deterministically (weight w = w slots per cycle).
func run(base string, functions []string, weights []int, body string, tenants []tenantShare, rate float64, duration time.Duration, deadlineMs, maxOut int) *result {
	var (
		mu        sync.Mutex
		status    = map[string]int64{}
		latencies []float64
		coldLat   []float64
		warmLat   []float64
		modeN     = map[string]int64{}
		modeLat   = map[string][]float64{}
		cold      int64
		warmN     int64
		perTenant = map[string]*tstats{}
		tenantLat = map[string][]float64{}
		traced    []traceRef
		retryHdr  atomic.Int64
		drops     atomic.Int64
		sent      atomic.Int64
		wg        sync.WaitGroup
	)
	for _, t := range tenants {
		perTenant[t.name] = &tstats{}
	}
	// Weighted round-robin tenant assignment: deterministic, exact
	// shares over every full cycle.
	var cycle []string
	for _, t := range tenants {
		for i := 0; i < t.share; i++ {
			cycle = append(cycle, t.name)
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxOut}}
	sem := make(chan struct{}, maxOut)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	urls := make([]string, len(functions))
	for i, fn := range functions {
		urls[i] = base + "/function/" + fn
	}
	// Weighted deterministic URL cycle, mirroring the tenant cycle.
	urlCycle := urls
	if weights != nil {
		urlCycle = nil
		for i, w := range weights {
			for j := 0; j < w; j++ {
				urlCycle = append(urlCycle, urls[i])
			}
		}
	}

	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= duration {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			drops.Add(1) // client saturated: still open-loop, the arrival is counted as lost
			continue
		}
		tenant := ""
		if len(cycle) > 0 {
			tenant = cycle[i%len(cycle)]
		}
		sent.Add(1)
		wg.Add(1)
		go func(tenant, url string) {
			defer wg.Done()
			defer func() { <-sem }()
			req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
			if tenant != "" {
				req.Header.Set("X-Hotc-Tenant", tenant)
			}
			if deadlineMs > 0 {
				req.Header.Set("X-Hotc-Deadline-Ms", strconv.Itoa(deadlineMs))
			}
			t0 := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				mu.Lock()
				status["transport_error"]++
				mu.Unlock()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			elapsed := time.Since(t0)
			if resp.Header.Get("Retry-After") != "" {
				retryHdr.Add(1)
			}
			latMs := float64(elapsed.Microseconds()) / 1000
			traceID := resp.Header.Get("X-Hotc-Trace-Id")
			reusedHdr := resp.Header.Get("X-Hotc-Reused")
			bootHdr := resp.Header.Get("X-Hotc-Boot")
			mu.Lock()
			status[strconv.Itoa(resp.StatusCode)]++
			if resp.StatusCode < 300 {
				latencies = append(latencies, latMs)
				// The gateway stamps X-Hotc-Reused on every proxied
				// reply: classify served requests cold vs warm here, so
				// nobody scrapes /system/stats mid-run. The finer
				// X-Hotc-Boot header splits non-reused boots into
				// rented / generic / full-cold modes.
				switch reusedHdr {
				case "true":
					warmN++
					warmLat = append(warmLat, latMs)
					modeN["warm"]++
					modeLat["warm"] = append(modeLat["warm"], latMs)
				case "false":
					cold++
					coldLat = append(coldLat, latMs)
					mode := bootHdr
					if mode == "" {
						mode = "cold"
					}
					modeN[mode]++
					modeLat[mode] = append(modeLat[mode], latMs)
				}
				if tenant != "" {
					tenantLat[tenant] = append(tenantLat[tenant], latMs)
				}
			}
			if traceID != "" {
				traced = append(traced, traceRef{
					TraceID: traceID, Status: resp.StatusCode,
					LatencyMS: float64(int(latMs*100)) / 100, Tenant: tenant,
				})
			}
			if ts := perTenant[tenant]; ts != nil {
				ts.Sent++
				switch {
				case resp.StatusCode < 300:
					ts.OK++
				case resp.StatusCode == http.StatusTooManyRequests:
					ts.Rejected++
				}
			}
			mu.Unlock()
		}(tenant, urlCycle[i%len(urlCycle)])
	}
	wg.Wait()

	res := &result{
		Target:        base,
		Function:      strings.Join(functions, ","),
		RateRPS:       rate,
		DurationS:     duration.Seconds(),
		Sent:          sent.Load(),
		ClientDrops:   drops.Load(),
		Status:        status,
		RetryAfter:    retryHdr.Load(),
		ColdStarts:    cold,
		WarmHits:      warmN,
		LatencyMS:     percentiles(latencies),
		LatencyColdMS: percentiles(coldLat),
		LatencyWarmMS: percentiles(warmLat),
	}
	if cold+warmN > 0 {
		res.ColdFraction = float64(cold) / float64(cold+warmN)
		res.BootModes = modeN
		res.ModeFractions = map[string]float64{}
		res.LatencyByModeMS = map[string]map[string]float64{}
		for mode, n := range modeN {
			res.ModeFractions[mode] = float64(n) / float64(cold+warmN)
			res.LatencyByModeMS[mode] = percentiles(modeLat[mode])
		}
	}
	if len(perTenant) > 0 {
		for name, ts := range perTenant {
			ts.LatencyMS = percentiles(tenantLat[name])
		}
		res.Tenants = perTenant
	}
	res.SlowestTraces, res.FailedTraces = pickTraces(traced, 5)
	var ok, rejected, fivexx int64
	for code, n := range status {
		c, _ := strconv.Atoi(code)
		switch {
		case c >= 200 && c < 300:
			ok += n
		case c == http.StatusTooManyRequests:
			rejected += n
		case c >= 500:
			fivexx += n
		}
	}
	if res.Sent > 0 {
		res.OKFraction = float64(ok) / float64(res.Sent)
		res.RejectedFrac = float64(rejected) / float64(res.Sent)
		res.FivexxFrac = float64(fivexx) / float64(res.Sent)
	}
	res.GoodputRPS = float64(ok) / duration.Seconds()
	return res
}

// pickTraces selects the report's span pointers: the n slowest 2xx
// responses (worst first) and the first n non-2xx responses, among
// those the gateway stamped with a trace ID.
func pickTraces(traced []traceRef, n int) (slowest, failed []traceRef) {
	for _, t := range traced {
		if t.Status >= 200 && t.Status < 300 {
			slowest = append(slowest, t)
		} else if len(failed) < n {
			failed = append(failed, t)
		}
	}
	sort.Slice(slowest, func(a, b int) bool { return slowest[a].LatencyMS > slowest[b].LatencyMS })
	if len(slowest) > n {
		slowest = slowest[:n]
	}
	return slowest, failed
}

// percentiles reports p50/p90/p99/max of ms, cut to two decimals, from
// the repo's one order-statistics implementation (metrics.Series: linear
// interpolation between closest ranks).
func percentiles(ms []float64) map[string]float64 {
	if len(ms) == 0 {
		return map[string]float64{}
	}
	var s metrics.Series
	for _, v := range ms {
		s.Add(v)
	}
	q := s.Quantiles(50, 90, 99)
	round := func(v float64) float64 { return float64(int(v*100)) / 100 }
	return map[string]float64{
		"p50": round(q[0]),
		"p90": round(q[1]),
		"p99": round(q[2]),
		"max": round(s.Max()),
	}
}
