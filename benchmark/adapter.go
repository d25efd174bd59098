package main

// adapter.go is the only file of the benchmark that imports hotc
// packages. Every repo function the benchmark calls is named here, so
// an API refactor knows exactly what a benchmark update must re-point:
//
//	live      NewDaemon, PoolConfig, PredictorFactory, DeploySpec,
//	          Daemon.Deploy/StartOn/Stats/Registry/Stop, BootHeader,
//	          TraceparentHeader, and the HTTP routes /function/<name>,
//	          /system/functions, /system/stats, /system/trace
//	router    New, Config, Router.StartOn/Registry/Stop, NodeHeader,
//	          AttemptsHeader, NewRing, Ring.Add/Owner/Ordered
//	hotc      CampusWorkload, NewSimulation, AppQR, Simulation.Deploy/
//	          Replay/Metrics/Close, Summarize
//	direct    admission.New + Queue.Acquire + Ticket.Done;
//	          prefork.Start/NewPool/Pool.Refill/TryAcquire/Idle/Stop,
//	          Watchdog.Specialize/Addr/Stop; sharing.NewClassifier +
//	          Observe, Policy.Compatible; image.StandardCatalog/Lookup/
//	          NewCache/Cache.Admit/Evict; predictor.Default + Observe/
//	          Predict; pool.New/Acquire/Release over container.NewEngine;
//	          simclock.New/After/Run; obs.New/Counter/Histogram,
//	          ParseTraceparent, ReadSpans, Registry.Snapshot/
//	          WritePrometheus

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"hotc"
	"hotc/internal/admission"
	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/faas/live"
	"hotc/internal/image"
	"hotc/internal/obs"
	"hotc/internal/pool"
	"hotc/internal/predictor"
	"hotc/internal/prefork"
	"hotc/internal/router"
	"hotc/internal/sharing"
	"hotc/internal/simclock"
)

// Response and request headers the client reads or sets.
const (
	hdrReused      = "X-Hotc-Reused"
	hdrBoot        = live.BootHeader
	hdrNode        = router.NodeHeader
	hdrAttempts    = router.AttemptsHeader
	hdrTraceparent = live.TraceparentHeader
)

// stackConfig selects how the system under test is hosted.
type stackConfig struct {
	// routed puts router.New (policy warm) in front of two daemons.
	routed bool
	// churn is cold_churn's cold-path configuration; otherwise hotcd's
	// flag defaults.
	churn bool
	// traced keeps every span (sample rate 1, ring 8192) so the phase
	// split can be read back from /system/trace.
	traced bool
}

// function is one deployment.
type function struct {
	name, handler, image string
	coldStartMs          int
}

// stack is a hosted system under test: in-process daemons on real
// loopback sockets, exactly as hotc-load self-hosts, optionally behind
// an in-process router.
type stack struct {
	base   string
	nodes  []*live.Daemon
	urls   []string
	router *router.Router
}

// poolConfig is hotcd's flag defaults (cmd/hotcd/main.go), which is
// what "the live stack" means to an operator.
func poolConfig(cfg stackConfig) (live.PoolConfig, error) {
	newPred, err := live.PredictorFactory("es+markov")
	if err != nil {
		return live.PoolConfig{}, err
	}
	pc := live.PoolConfig{
		IdleTTL:            5 * time.Minute,
		MaxIdlePerFunction: 8,
		ReapInterval:       time.Second,
		ControlInterval:    2 * time.Second,
		NewPredictor:       newPred,
		BreakerThreshold:   5,
		BreakerOpenFor:     30 * time.Second,
		MaxBodyBytes:       32 << 20,
		MaxInFlight:        128,
		QueueDepth:         256,
		TraceCapacity:      2048,
		TraceSampleRate:    0.01,
		TraceSlowThreshold: 500 * time.Millisecond,
		SLOLatency:         250 * time.Millisecond,
		SLOColdStartPct:    5,
	}
	if cfg.churn {
		// Keep-alive shorter than a light function's inter-arrival gap
		// makes every light arrival a warm miss; the layer cache is off
		// so a generic handoff pays the pull and renting is visibly
		// cheaper.
		pc.IdleTTL = 150 * time.Millisecond
		pc.ReapInterval = 25 * time.Millisecond
		pc.ControlInterval = 500 * time.Millisecond
		pc.Prefork = true
		pc.PreforkSize = 4
		pc.PreforkBoot = 30 * time.Millisecond
		pc.Share = true
		pc.SharePolicy = "same-image"
		pc.ShareWipe = 2 * time.Millisecond
		pc.ShareIdleGrace = 20 * time.Millisecond
		pc.DisableLayerCache = true
	}
	if cfg.traced {
		pc.TraceSampleRate = 1
		pc.TraceCapacity = 8192
	}
	return pc, nil
}

// startStack boots the daemons (and router); nothing is deployed yet.
func startStack(cfg stackConfig) (*stack, error) {
	pc, err := poolConfig(cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{}
	n := 1
	if cfg.routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		d := live.NewDaemon(pc)
		url, err := d.StartOn("127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		s.nodes = append(s.nodes, d)
		s.urls = append(s.urls, url)
	}
	s.base = s.urls[0]
	if cfg.routed {
		rt, err := router.New(router.Config{Nodes: s.urls, Policy: router.PolicyWarmAware})
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("start router: %w", err)
		}
		s.router = rt
		if s.base, err = rt.StartOn("127.0.0.1:0"); err != nil {
			s.stop()
			return nil, fmt.Errorf("start router: %w", err)
		}
	}
	return s, nil
}

// deploy registers fn: directly on a lone daemon, through the router's
// public fan-out route otherwise.
func (s *stack) deploy(fn function) error {
	spec := live.DeploySpec{Name: fn.name, Handler: fn.handler, ColdStartMs: fn.coldStartMs, Image: fn.image}
	if s.router == nil {
		return s.nodes[0].Deploy(spec)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(s.base+"/system/functions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error below
	if resp.StatusCode >= 300 {
		return fmt.Errorf("router answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

func (s *stack) stop() {
	if s.router != nil {
		s.router.Stop()
	}
	for _, d := range s.nodes {
		d.Stop()
	}
}

// counters is the stack's cumulative accounting; a window's numbers
// are the difference of two reads.
type counters struct {
	// From Daemon.Stats(), summed over nodes.
	requests, reused, coldStarts, generic, rented int
	prewarmed, retired, expired, canceled         int
	// From each node's public /system/stats.
	bootFailures, proxyFailures                    int
	admQueued, admRejected                         int
	refillBoots                                    int
	genericIdle                                    int
	pullSkippedMB                                  float64
	leasesGranted, leasesNoCandidate, leasesDenied int
	// From the router's registry.
	spills float64
}

func (s *stack) counters() (counters, error) {
	var c counters
	for i, d := range s.nodes {
		st := d.Stats()
		c.requests += st.Requests
		c.reused += st.Reused
		c.coldStarts += st.ColdStarts
		c.generic += st.GenericHandoffs
		c.rented += st.RentedBoots
		c.prewarmed += st.Prewarmed
		c.retired += st.Retired
		c.expired += st.Expired
		c.canceled += st.Canceled

		var sys struct {
			Resilience map[string]int             `json:"resilience"`
			Admission  map[string]admission.Stats `json:"admission"`
			ColdPath   live.ColdPathStats         `json:"coldPath"`
			Sharing    live.SharingStats          `json:"sharing"`
		}
		if err := getJSON(s.urls[i]+"/system/stats", &sys); err != nil {
			return c, err
		}
		c.bootFailures += sys.Resilience["boot.failures"] + sys.Resilience["prefork.boot_failures"]
		c.proxyFailures += sys.Resilience["proxy.failures"]
		for _, a := range sys.Admission {
			c.admQueued += a.Queued
			for _, n := range a.Rejected {
				c.admRejected += int(n)
			}
		}
		c.refillBoots += int(sys.ColdPath.RefillBoots)
		c.genericIdle += sys.ColdPath.GenericIdle
		c.pullSkippedMB += sys.ColdPath.PullSkippedMB
		c.leasesGranted += int(sys.Sharing.LeasesGranted)
		c.leasesNoCandidate += int(sys.Sharing.LeasesNoCandidate)
		c.leasesDenied += int(sys.Sharing.LeasesDenied)
	}
	if s.router != nil {
		c.spills = counterValue(s.router.Registry(), "hotc_router_spill_attempts_total")
	}
	return c, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counterValue sums a counter family's series.
func counterValue(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, fam := range reg.Snapshot() {
		if fam.Name == name {
			for _, s := range fam.Series {
				total += s.Value
			}
		}
	}
	return total
}

// phaseNames are the obs.Span phases the budget itemises.
var phaseNames = []string{"queue", "acquire", "init", "exec", "respond"}

// phases reads every node's span ring through the public /system/trace
// route and returns each phase's per-request microseconds, successful
// requests only.
func (s *stack) phases() (map[string][]float64, error) {
	out := make(map[string][]float64, len(phaseNames))
	for _, url := range s.urls {
		resp, err := http.Get(url + "/system/trace?format=jsonl")
		if err != nil {
			return nil, err
		}
		spans, err := obs.ReadSpans(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, sp := range spans {
			if !sp.OK() {
				continue
			}
			for _, p := range phaseNames {
				out[p] = append(out[p], float64(sp.Phase(p))/1e3)
			}
		}
	}
	return out, nil
}

// scrape times one Prometheus exposition of the first node's registry.
func (s *stack) scrape() (time.Duration, error) {
	t0 := time.Now()
	err := s.nodes[0].Registry().WritePrometheus(io.Discard)
	return time.Since(t0), err
}

// simTrace is a generated campus request schedule.
type simTrace struct {
	w hotc.Workload
}

func (t simTrace) len() int { return len(t.w) }

// campusTrace synthesises a day of the Fig. 11 diurnal trace over four
// request classes.
func campusTrace(seed int64, minutes int) simTrace {
	return simTrace{w: hotc.CampusWorkload(seed, 1.0, minutes, 4)}
}

// sim is one noiseless HotC simulation with four qr-python functions
// on distinct runtime keys.
type sim struct {
	s *hotc.Simulation
}

func newSim() (*sim, error) {
	s, err := hotc.NewSimulation(hotc.Config{Policy: hotc.PolicyHotC, LocalImages: true})
	if err != nil {
		return nil, err
	}
	app, err := hotc.AppQR("python")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		err := s.Deploy(hotc.FunctionSpec{
			Name:    simFunction(i),
			Runtime: hotc.Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("FN=%d", i)}},
			App:     app,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	return &sim{s: s}, nil
}

func simFunction(class int) string { return fmt.Sprintf("qr%d", class%4) }

// simOutputs are a replay's modelled outputs. They come from virtual
// time, so the same trace must reproduce them bit for bit.
type simOutputs struct {
	Requests   int     `json:"requests"`
	ColdStarts int     `json:"cold_starts"`
	Reused     int     `json:"reused"`
	Errors     int     `json:"errors"`
	MeanMS     float64 `json:"latency_mean_ms"`
	P50MS      float64 `json:"latency_p50_ms"`
	P99MS      float64 `json:"latency_p99_ms"`
	MaxMS      float64 `json:"latency_max_ms"`
	PoolHits   float64 `json:"pool_hits"`
	PoolMisses float64 `json:"pool_misses"`
}

func (s *sim) replay(t simTrace) (simOutputs, error) {
	results, err := s.s.Replay(t.w, simFunction)
	if err != nil {
		return simOutputs{}, err
	}
	st := hotc.Summarize(results)
	lat := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Err == nil {
			lat = append(lat, float64(r.Latency)/1e6)
		}
	}
	lat = sortedCopy(lat)
	return simOutputs{
		Requests: st.Requests, ColdStarts: st.ColdStarts, Reused: st.Reused, Errors: st.Errors,
		MeanMS: st.MeanMS, P50MS: percentile(lat, 0.50), P99MS: st.P99MS, MaxMS: st.MaxMS,
		PoolHits:   counterValue(s.s.Metrics(), "hotc_pool_hits_total"),
		PoolMisses: counterValue(s.s.Metrics(), "hotc_pool_misses_total"),
	}, nil
}

func (s *sim) scrape() (time.Duration, error) {
	t0 := time.Now()
	err := s.s.Metrics().WritePrometheus(io.Discard)
	return time.Since(t0), err
}

func (s *sim) close() { s.s.Close() }

// directOp is one public layer function timed in isolation. run is
// called iters times per batch; prep, when set, runs untimed before
// every call; check, when set, says afterwards whether the calls did
// what the metric claims; done releases what the op holds. perCall is
// how many operations one run performs (default 1); a unit of "1/s"
// reports the rate instead of the time.
type directOp struct {
	metric  string
	unit    string // ns, us or 1/s
	iters   int
	perCall int
	prep    func()
	run     func()
	check   func() error
	done    func()
}

// echoHandler is what live specializes an echo watchdog with, minus
// the gateway: the floor of the watchdog hop.
var echoHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.Copy(w, r.Body) // a failed copy surfaces as a short body, which the caller verifies
})

// bareWatchdog starts a specialized echo watchdog with no gateway in
// front and returns its URL.
func bareWatchdog() (url string, stop func(), err error) {
	wd, err := prefork.Start(nil)
	if err != nil {
		return "", nil, err
	}
	wd.Specialize(echoHandler)
	return "http://" + wd.Addr() + "/", wd.Stop, nil
}

// directOps builds the isolated layer timings. sink keeps results
// alive so the compiler cannot drop the calls.
func directOps() ([]directOp, error) {
	var ops []directOp
	var sink int

	// router: ring lookups over two members, as warm_routed has.
	ring := router.NewRing(0)
	ring.Add("127.0.0.1:8081")
	ring.Add("127.0.0.1:8082")
	ops = append(ops,
		directOp{metric: "router.ring_owner_ns", unit: "ns", iters: 20000, run: func() { sink += len(ring.Owner("echo")) }},
		directOp{metric: "router.ring_ordered_ns", unit: "ns", iters: 20000, run: func() { sink += len(ring.Ordered("echo")) }},
	)

	// admission: the uncontended fast path at hotcd's limits.
	q := admission.New(admission.Config{MaxInFlight: 128, QueueDepth: 256})
	ctx := context.Background()
	ops = append(ops, directOp{metric: "admission.admit_ns", unit: "ns", iters: 50000, run: func() {
		if t, rej := q.Acquire(ctx, "bench", time.Time{}); rej == nil {
			t.Done()
		}
	}, done: q.Stop})

	// prefork: a real listener+server boot, the handler swap, and the
	// pool pop (timed over a pool refilled untimed before each pop).
	var booted []*prefork.Watchdog
	ops = append(ops, directOp{metric: "prefork.start_us", unit: "us", iters: 16, run: func() {
		if wd, err := prefork.Start(nil); err == nil {
			booted = append(booted, wd)
		}
	}, done: func() {
		for _, wd := range booted {
			wd.Stop()
		}
	}})
	spec, err := prefork.Start(nil)
	if err != nil {
		return nil, err
	}
	ops = append(ops, directOp{metric: "prefork.specialize_ns", unit: "ns", iters: 50000,
		run: func() { spec.Specialize(echoHandler) }, done: spec.Stop})
	spare, err := prefork.Start(nil)
	if err != nil {
		return nil, err
	}
	gp := prefork.NewPool(prefork.Config{Size: 1, Boot: func() (*prefork.Watchdog, error) { return spare, nil }})
	ops = append(ops, directOp{metric: "prefork.try_acquire_ns", unit: "ns", iters: 500,
		prep: func() {
			gp.Refill()
			for gp.Idle() == 0 {
				runtime.Gosched() // let the pool's boot goroutine hand the watchdog back
			}
		},
		run: func() {
			if gp.TryAcquire() != nil {
				sink++
			}
		},
		done: func() { gp.Stop(); spare.Stop() }})

	// sharing: one classifier tick and one policy check.
	cls := sharing.NewClassifier(sharing.ClassifierConfig{})
	pol := sharing.Policy{Mode: sharing.ModeSameImage}
	renter := sharing.Candidate{Image: "python:3.8", MemoryMB: 128, Shareable: true}
	lender := sharing.Candidate{Image: "python:3.8", MemoryMB: 256, Shareable: true}
	ops = append(ops,
		directOp{metric: "sharing.classifier_observe_ns", unit: "ns", iters: 100000, run: func() { sink += int(cls.Observe(2, 1, 3)) }},
		directOp{metric: "sharing.policy_compatible_ns", unit: "ns", iters: 100000, run: func() {
			if ok, _ := pol.Compatible(renter, lender); ok {
				sink++
			}
		}},
	)

	// image: layer admission of python:3.8, cached and not.
	py, err := image.StandardCatalog().Lookup("python:3.8")
	if err != nil {
		return nil, err
	}
	cache := image.NewCache()
	cache.Admit(py)
	ops = append(ops,
		directOp{metric: "image.admit_hit_ns", unit: "ns", iters: 20000, run: func() { sink += int(cache.Admit(py)) }},
		directOp{metric: "image.admit_miss_ns", unit: "ns", iters: 5000,
			prep: func() { cache.Evict(py) }, run: func() { sink += int(cache.Admit(py)) }},
	)

	// predictor: one control-interval step of the paper's ES+Markov.
	pred := predictor.Default()
	step := 0
	ops = append(ops, directOp{metric: "predictor.step_ns", unit: "ns", iters: 2000, run: func() {
		step++
		pred.Observe(float64(step % 7))
		sink += int(pred.Predict())
	}})

	// pool: the warm hit path on the sim engine (acquire an available
	// runtime, execute qr in it, clean and release it, drain the
	// virtual clock).
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	pl := pool.New(eng, pool.Options{})
	cspec, err := container.ResolveSpec(config.Runtime{Image: "python:3.8"}, reg)
	if err != nil {
		return nil, err
	}
	app, err := hotc.AppQR("python")
	if err != nil {
		return nil, err
	}
	ops = append(ops, directOp{metric: "pool.acquire_release_ns", unit: "ns", iters: 5000,
		run: func() {
			pl.Acquire(cspec, func(c *container.Container, _ bool, _ config.Delta, err error) {
				if err == nil {
					eng.Exec(c, app, func(time.Duration, error) { pl.Release(c, nil) })
				}
			})
			sched.Run() // the event limit is unset, so Run cannot fail
		},
		check: func() error {
			// Only the very first acquire may create a runtime.
			if st := pl.Stats(); st.Misses != 1 {
				return fmt.Errorf("pool warm-path timing made %d misses, want 1", st.Misses)
			}
			return nil
		}})

	// simclock: schedule and fire no-op events.
	clock := simclock.New()
	ops = append(ops, directOp{metric: "simclock.events_per_s", unit: "1/s", iters: 200, perCall: 1000, run: func() {
		for i := 0; i < 1000; i++ {
			clock.After(time.Duration(i)*time.Microsecond, func() {})
		}
		clock.Run()
	}})

	// obs: the hot-path instruments and the traceparent parser.
	oreg := obs.New()
	ctr := oreg.Counter("hotc_bench_counter_total", "benchmark direct timing")
	hist := oreg.Histogram("hotc_bench_latency_ms", "benchmark direct timing", obs.DefaultLatencyBucketsMS())
	tp := traceparent(1, 1)
	ops = append(ops,
		directOp{metric: "obs.counter_inc_ns", unit: "ns", iters: 200000, run: ctr.Inc},
		directOp{metric: "obs.histogram_observe_ns", unit: "ns", iters: 200000, run: func() { hist.Observe(3.5) }},
		directOp{metric: "obs.traceparent_parse_ns", unit: "ns", iters: 100000, run: func() {
			if _, ok := obs.ParseTraceparent(tp); ok {
				sink++
			}
		}},
	)
	_ = sink
	return ops, nil
}
