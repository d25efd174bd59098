// Command hotcd runs the HotC live gateway daemon: a real HTTP
// serverless gateway with adaptive live-container control, warm-pool
// reuse, keep-alive expiry and a management API, serving built-in
// demonstration functions.
//
// Usage:
//
//	hotcd -addr 127.0.0.1:8080 -predictor es+markov -control-interval 2s \
//	      -keepalive 5m -max-warm 8
//
// Then:
//
//	curl -XPOST localhost:8080/system/functions \
//	     -d '{"name":"up","handler":"upper","coldStartMs":400}'
//	curl -XPOST localhost:8080/function/up -d 'hello'
//	curl localhost:8080/system/stats
//	curl localhost:8080/system/predictions
//
// The X-Hotc-Reused response header reports whether the request reused
// a warm instance.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hotc/internal/faas/live"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		keepalive = flag.Duration("keepalive", 5*time.Minute, "stop instances idle longer than this (0 = never)")
		maxWarm   = flag.Int("max-warm", 8, "max warm instances per function, evicting oldest first (0 = unlimited)")
		reap      = flag.Duration("reap-interval", time.Second, "janitor scan interval for keep-alive expiry")
		ctlEvery  = flag.Duration("control-interval", 2*time.Second, "adaptive controller period: demand is sampled and the warm pool resized every interval")
		predName  = flag.String("predictor", "es+markov", "demand predictor driving prewarm/retire: es|markov|es+markov|off")
		headroom  = flag.Float64("headroom", 0, "fraction added to every forecast before provisioning (0.1 = +10%)")
		preload   = flag.Bool("preload", true, "deploy the builtin demo functions at startup")
		brkThresh = flag.Int("breaker-threshold", 5, "consecutive backend failures that open a function's circuit breaker (0 = disabled)")
		brkOpen   = flag.Duration("breaker-open", 30*time.Second, "how long an open breaker fast-fails before probing again")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		maxBody   = flag.Int64("max-body-size", 32<<20, "max request body bytes before HTTP 413 (0 = unlimited)")
		maxInFl   = flag.Int("max-inflight", 128, "max concurrently executing requests per function; excess queues for admission (0 = admission control off)")
		queueLen  = flag.Int("queue-depth", 256, "max queued requests per tenant per function before 429 + Retry-After")
		deadline  = flag.Duration("default-deadline", 0, "deadline applied to requests without an X-Hotc-Deadline-Ms header: queued requests past it are shed with 429, in-flight backend work is canceled (0 = none)")
		memBudget = flag.Int64("memory-budget", 0, "estimated warm-instance memory budget in bytes across all functions; the janitor reclaims from the biggest holders first (0 = unlimited)")
		noTrace   = flag.Bool("no-trace", false, "disable live request tracing (/system/trace and traceparent propagation)")
		trCap     = flag.Int("trace-capacity", 2048, "span ring capacity behind /system/trace")
		trSample  = flag.Float64("trace-sample", 0.01, "probabilistic keep rate for unremarkable successful spans; errors, sheds, cold starts and slow requests are always kept (negative = always-keep classes only)")
		trSlowMs  = flag.Int("trace-slow-ms", 500, "always keep spans at or above this end-to-end latency, in milliseconds (negative = off)")
		sloLatMs  = flag.Int("slo-latency-ms", 250, "latency SLO: 2xx requests slower than this are bad events against a p99 objective (0 = objective off)")
		sloColdPc = flag.Float64("slo-coldstart-pct", 5, "cold-start SLO: percent of served requests allowed to pay a cold start (0 = objective off)")
		prefork   = flag.Bool("prefork", false, "maintain a pool of generic pre-forked watchdogs: cold starts specialize a running generic instance and pay only image pull (layer-cache-scaled) + app init")
		preforkN  = flag.Int("prefork-size", 4, "target number of idle generic pre-forked watchdogs")
		preforkMs = flag.Int("prefork-boot", 120, "milliseconds one generic watchdog boot pays, always off the request path")
		layerCch  = flag.Bool("layer-cache", true, "cache image layers on the host so functions sharing base layers skip most of the pull phase")
		layerCap  = flag.Float64("layer-cache-cap", 0, "layer cache capacity in MB with LRU eviction (0 = unbounded)")
		bootSplit = flag.String("boot-split", "", "pull:runtime:app percentage split of coldStartMs for functions without explicit phases, e.g. 55:30:15 (empty = default)")
		share     = flag.Bool("share", false, "inter-function sharing: cold starts may rent an idle instance from another function, paying only volume wipe + app init (+ image-layer delta) instead of a full boot")
		sharePol  = flag.String("share-policy", "same-image", "which function pairs may share: same-image|any")
		shareWp   = flag.Int("share-wipe-ms", 5, "milliseconds one lease pays to wipe the lender's volume before re-specialization")
		shareGr   = flag.Duration("share-idle-grace", 250*time.Millisecond, "minimum idle age before an instance may be lent to another function (0 = the 250ms default; negative = none)")
	)
	flag.Parse()

	newPred, err := live.PredictorFactory(*predName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotcd:", err)
		os.Exit(2)
	}
	pullFrac, rtFrac, appFrac, err := parseBootSplit(*bootSplit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotcd:", err)
		os.Exit(2)
	}

	cfg := live.PoolConfig{
		IdleTTL:            *keepalive,
		MaxIdlePerFunction: *maxWarm,
		ReapInterval:       *reap,
		ControlInterval:    *ctlEvery,
		NewPredictor:       newPred,
		Headroom:           *headroom,
		BreakerThreshold:   *brkThresh,
		BreakerOpenFor:     *brkOpen,
		EnablePprof:        *pprofOn,
		MaxBodyBytes:       *maxBody,
		MaxInFlight:        *maxInFl,
		QueueDepth:         *queueLen,
		DefaultDeadline:    *deadline,
		MemoryBudget:       *memBudget,
		DisableTracing:     *noTrace,
		TraceCapacity:      *trCap,
		TraceSampleRate:    *trSample,
		TraceSlowThreshold: time.Duration(*trSlowMs) * time.Millisecond,
		SLOLatency:         time.Duration(*sloLatMs) * time.Millisecond,
		SLOColdStartPct:    *sloColdPc,
		Prefork:            *prefork,
		PreforkSize:        *preforkN,
		PreforkBoot:        time.Duration(*preforkMs) * time.Millisecond,
		DisableLayerCache:  !*layerCch,
		LayerCacheCapMB:    *layerCap,
		BootPullFrac:       pullFrac,
		BootRuntimeFrac:    rtFrac,
		BootAppFrac:        appFrac,
		Share:              *share,
		SharePolicy:        *sharePol,
		ShareWipe:          time.Duration(*shareWp) * time.Millisecond,
		ShareIdleGrace:     *shareGr,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hotcd:", err)
		os.Exit(2)
	}
	d := live.NewDaemon(cfg)
	if *preload {
		for _, h := range live.Builtins() {
			if err := d.Deploy(live.DeploySpec{Name: h, Handler: h, ColdStartMs: 400}); err != nil {
				fmt.Fprintln(os.Stderr, "hotcd:", err)
				os.Exit(1)
			}
		}
	}
	base, err := d.StartOn(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotcd:", err)
		os.Exit(1)
	}
	defer d.Stop()
	fmt.Printf("hotcd listening on %s\n", base)
	if *preload {
		fmt.Printf("preloaded functions: %v (cold start 400ms each)\n", live.Builtins())
	}
	// Everything below reports the configuration the gateway resolved,
	// not the flags: a 0 that means "the default" prints as the default.
	rc := d.Config()
	if rc.NewPredictor != nil {
		fmt.Printf("adaptive control: predictor=%s interval=%v keepalive=%v reap-interval=%v max-warm=%d\n",
			*predName, rc.ControlInterval, rc.IdleTTL, rc.ReapInterval, rc.MaxIdlePerFunction)
	} else {
		fmt.Printf("adaptive control: off (keepalive=%v reap-interval=%v max-warm=%d still enforced)\n",
			rc.IdleTTL, rc.ReapInterval, rc.MaxIdlePerFunction)
	}
	if rc.MaxBodyBytes > 0 {
		fmt.Printf("request bodies: capped at %d bytes (413 past that)\n", rc.MaxBodyBytes)
	}
	if rc.MaxInFlight > 0 {
		fmt.Printf("admission: max-inflight=%d queue-depth=%d default-deadline=%v (tenant via X-Hotc-Tenant, deadline via X-Hotc-Deadline-Ms)\n",
			rc.MaxInFlight, rc.QueueDepth, rc.DefaultDeadline)
	} else {
		fmt.Println("admission: off (-max-inflight 0)")
	}
	if rc.MemoryBudget > 0 {
		fmt.Printf("warm memory budget: %d bytes (janitor reclaims biggest holders past it, generic watchdogs first)\n", rc.MemoryBudget)
	}
	if rc.Prefork {
		fmt.Printf("cold path: prefork pool size=%d generic-boot=%v; cold starts pay pull+app-init only (X-Hotc-Boot: generic|cold)\n",
			rc.PreforkSize, rc.PreforkBoot)
	}
	if rc.Share {
		fmt.Printf("sharing: on policy=%s wipe=%v idle-grace=%s; cold starts may rent idle instances across functions (X-Hotc-Boot: rented, opt out per deploy with \"shareable\": false)\n",
			rc.SharePolicy, rc.ShareWipe, orNone(rc.ShareIdleGrace))
	}
	if !rc.DisableLayerCache {
		capNote := "unbounded"
		if rc.LayerCacheCapMB > 0 {
			capNote = fmt.Sprintf("%.0f MB, LRU", rc.LayerCacheCapMB)
		}
		fmt.Printf("layer cache: on (%s); deploys with \"image\" skip the pull share of cached layers\n", capNote)
	} else {
		fmt.Println("layer cache: off (-layer-cache=false)")
	}
	if rc.DisableTracing {
		fmt.Println("tracing: off (-no-trace)")
	} else {
		fmt.Printf("tracing: ring=%d sample=%.4g slow=%s (GET /system/trace, traceparent accepted, X-Hotc-Trace-Id echoed)\n",
			rc.TraceCapacity, rc.TraceSampleRate, orNone(rc.TraceSlowThreshold))
	}
	if rc.SLOLatency > 0 || rc.SLOColdStartPct > 0 {
		fmt.Printf("slo: latency p99<%v coldstart<%.4g%% (GET /system/slo, hotc_slo_* burn rates)\n",
			rc.SLOLatency, rc.SLOColdStartPct)
	}
	fmt.Println("management: GET/POST /system/functions, GET /system/stats, GET /system/predictions; invoke: POST /function/<name>")
	fmt.Println("metrics: GET /metrics (Prometheus text exposition with trace exemplars)")
	if rc.EnablePprof {
		fmt.Println("profiling: GET /debug/pprof/")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nhotcd: shutting down")
}

// orNone prints a resolved "0 = none" duration (see live.Daemon.Config).
func orNone(d time.Duration) string {
	if d == 0 {
		return "none"
	}
	return d.String()
}

// parseBootSplit parses a "pull:runtime:app" percentage triple, e.g.
// "55:30:15". Empty means use the built-in default split; the parts
// need not sum to 100 (the gateway normalizes) but must be positive
// overall and non-negative individually.
func parseBootSplit(s string) (pull, rt, app float64, err error) {
	if s == "" {
		return 0, 0, 0, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad -boot-split %q (want pull:runtime:app, e.g. 55:30:15)", s)
	}
	vals := make([]float64, 3)
	sum := 0.0
	for i, p := range parts {
		v, perr := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if perr != nil || v < 0 {
			return 0, 0, 0, fmt.Errorf("bad -boot-split part %q (want a non-negative number)", p)
		}
		vals[i] = v
		sum += v
	}
	if sum <= 0 {
		return 0, 0, 0, fmt.Errorf("bad -boot-split %q (parts sum to zero)", s)
	}
	return vals[0], vals[1], vals[2], nil
}
