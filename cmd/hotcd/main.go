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
	"syscall"
	"time"

	"hotc/internal/faas/live"
)

// daemon is hotcd's command line: every flag is bound to its field of
// cfg, except the daemon's own -addr and -preload and the few that
// need converting after the parse (resolve).
type daemon struct {
	cfg     live.PoolConfig
	addr    string
	preload bool

	predictor  string
	layerCache bool
	// The flags given in milliseconds.
	traceSlowMs, sloLatencyMs, preforkBootMs, shareWipeMs int
}

// flags registers every flag on a new set named name, bound to d.
func (d *daemon) flags(name string, onError flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet(name, onError)
	c := &d.cfg
	fs.StringVar(&d.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&c.Backend, "backend", live.BackendInProcess, "where functions run: in-process (on the front door's goroutine, no watchdog socket) or socket (a loopback watchdog per instance, the paper's gateway→watchdog leg)")
	fs.DurationVar(&c.IdleTTL, "keepalive", 5*time.Minute, "stop instances idle longer than this, beyond what the controller's forecast holds (0 = never)")
	fs.IntVar(&c.MaxIdlePerFunction, "max-warm", 8, "max warm instances per function, evicting oldest first (0 = unlimited)")
	fs.DurationVar(&c.ReapInterval, "reap-interval", time.Second, "janitor scan interval for keep-alive expiry")
	fs.DurationVar(&c.ControlInterval, "control-interval", 2*time.Second, "adaptive controller period: demand is sampled and the warm pool resized every interval")
	fs.StringVar(&d.predictor, "predictor", "es+markov", "demand predictor driving prewarm/retire: es|markov|es+markov|off")
	fs.BoolVar(&d.preload, "preload", true, "deploy the builtin demo functions at startup")
	fs.IntVar(&c.BreakerThreshold, "breaker-threshold", 5, "consecutive backend failures that open a function's circuit breaker (0 = disabled)")
	fs.DurationVar(&c.BreakerOpenFor, "breaker-open", 30*time.Second, "how long an open breaker fast-fails before probing again")
	fs.BoolVar(&c.EnablePprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.Int64Var(&c.MaxBodyBytes, "max-body-size", 32<<20, "max request body bytes before HTTP 413 (0 = unlimited)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", 128, "max concurrently executing requests per function; excess queues for admission (0 = admission control off)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 256, "max queued requests per tenant per function before 429 + Retry-After")
	fs.DurationVar(&c.DefaultDeadline, "default-deadline", 0, "deadline applied to requests without an X-Hotc-Deadline-Ms header: queued requests past it are shed with 429, in-flight backend work is canceled (0 = none)")
	fs.Int64Var(&c.MemoryBudget, "memory-budget", 0, "estimated warm-instance memory budget in bytes across all functions; past it the janitor reclaims idle generic watchdogs, then the longest-idle warm instances first (0 = unlimited)")
	fs.IntVar(&c.TraceCapacity, "trace-capacity", 2048, "span ring capacity behind /system/trace")
	fs.Float64Var(&c.TraceSampleRate, "trace-sample", 0.01, "probabilistic keep rate for unremarkable successful spans; errors, sheds, cold starts and slow requests are always kept (negative = always-keep classes only)")
	fs.IntVar(&d.traceSlowMs, "trace-slow-ms", 500, "always keep spans at or above this end-to-end latency, in milliseconds (negative = off)")
	fs.IntVar(&d.sloLatencyMs, "slo-latency-ms", 250, "latency SLO: 2xx requests slower than this are bad events against a p99 objective (0 = objective off)")
	fs.Float64Var(&c.SLOColdStartPct, "slo-coldstart-pct", 5, "cold-start SLO: percent of served requests allowed to pay a cold start (0 = objective off)")
	fs.BoolVar(&c.Prefork, "prefork", false, "maintain a pool of generic pre-forked watchdogs: cold starts specialize a running generic instance and pay only image pull (layer-cache-scaled) + app init")
	fs.IntVar(&c.PreforkSize, "prefork-size", 4, "target number of idle generic pre-forked watchdogs")
	fs.IntVar(&d.preforkBootMs, "prefork-boot", 120, "milliseconds one generic watchdog boot pays, always off the request path")
	fs.BoolVar(&d.layerCache, "layer-cache", true, "cache image layers on the host so functions sharing base layers skip most of the pull phase")
	fs.BoolVar(&c.Share, "share", false, "inter-function sharing: cold starts may rent an idle instance from another function, paying only volume wipe + app init (+ image-layer delta) instead of a full boot; functions of the same runtime key (image and memoryMB) share first, with no forecast reserve")
	fs.StringVar(&c.SharePolicy, "share-policy", "same-image", "which function pairs may share: same-image|any")
	fs.IntVar(&d.shareWipeMs, "share-wipe-ms", 5, "milliseconds one lease pays to wipe the lender's volume before re-specialization")
	fs.DurationVar(&c.ShareIdleGrace, "share-idle-grace", 250*time.Millisecond, "minimum idle age before an instance may be lent to another function (0 = the 250ms default; negative = none)")
	return fs
}

// resolve converts the flags that are not a field's own type into cfg
// and validates the result.
func (d *daemon) resolve() error {
	newPred, err := live.PredictorFactory(d.predictor)
	if err != nil {
		return err
	}
	c := &d.cfg
	c.NewPredictor = newPred
	c.DisableLayerCache = !d.layerCache
	c.TraceSlowThreshold = time.Duration(d.traceSlowMs) * time.Millisecond
	c.SLOLatency = time.Duration(d.sloLatencyMs) * time.Millisecond
	c.PreforkBoot = time.Duration(d.preforkBootMs) * time.Millisecond
	c.ShareWipe = time.Duration(d.shareWipeMs) * time.Millisecond
	return c.Validate()
}

func main() {
	var cmd daemon
	cmd.flags(os.Args[0], flag.ExitOnError).Parse(os.Args[1:])
	if err := cmd.resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "hotcd:", err)
		os.Exit(2)
	}
	d := live.New(cmd.cfg)
	if cmd.preload {
		for _, h := range live.Builtins() {
			if err := d.Deploy(live.DeploySpec{Name: h, Handler: h, ColdStartMs: 400}); err != nil {
				fmt.Fprintln(os.Stderr, "hotcd:", err)
				os.Exit(1)
			}
		}
	}
	base, err := d.StartOn(cmd.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotcd:", err)
		os.Exit(1)
	}
	defer d.Stop()
	fmt.Printf("hotcd listening on %s\n", base)
	fmt.Printf("backend: %s\n", d.Config().Backend)
	if cmd.preload {
		fmt.Printf("preloaded functions: %v (cold start 400ms each)\n", live.Builtins())
	}
	// Everything below reports the configuration the gateway resolved,
	// not the flags: a 0 that means "the default" prints as the default.
	rc := d.Config()
	if rc.NewPredictor != nil {
		fmt.Printf("adaptive control: predictor=%s interval=%v keepalive=%v reap-interval=%v max-warm=%d\n",
			cmd.predictor, rc.ControlInterval, rc.IdleTTL, rc.ReapInterval, rc.MaxIdlePerFunction)
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
		fmt.Printf("warm memory budget: %d bytes (janitor reclaims past it: generic watchdogs, then the longest idle first)\n", rc.MemoryBudget)
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
		fmt.Println("layer cache: on (unbounded); deploys with \"image\" skip the pull share of cached layers")
	} else {
		fmt.Println("layer cache: off (-layer-cache=false)")
	}
	fmt.Printf("tracing: ring=%d sample=%.4g slow=%s (GET /system/trace, traceparent accepted, X-Hotc-Trace-Id echoed)\n",
		rc.TraceCapacity, rc.TraceSampleRate, orNone(rc.TraceSlowThreshold))
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

// orNone prints a resolved "0 = none" duration (see live.Gateway.Config).
func orNone(d time.Duration) string {
	if d == 0 {
		return "none"
	}
	return d.String()
}
