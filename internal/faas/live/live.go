// Package live is a real (non-simulated) miniature of the OpenFaaS
// pipeline the paper instruments: an HTTP gateway that proxies
// requests to per-function watchdog processes over actual TCP sockets
// on localhost. Each watchdog is an http.Server wrapping the function
// handler — the role OpenFaaS's "tiny Golang HTTP server" plays inside
// the container.
//
// Cold start is modelled by a configurable delay when a new watchdog
// instance boots (standing in for container creation, runtime init and
// application init); with reuse enabled the gateway keeps finished
// instances warm in a pool, HotC-style, and skips that delay.
//
// # Configuration
//
// A gateway is configured once: New(PoolConfig) resolves every default
// in one function, builds the metrics registry, tracer, SLO monitor,
// layer cache and generic pool, and keeps the resolved config for the
// gateway's whole life — nothing is settable afterwards, and a
// function registered before Start is set up exactly like one
// registered after. NewDaemon is New plus the management routes;
// NewGateway is New(PoolConfig{}).
//
// With PoolConfig.NewPredictor the gateway also runs the paper's
// adaptive live-container control (Algorithm 3) against the real pool:
// one control cycle samples every function's demand each interval,
// forecasts the next one with the ES+Markov predictor, and prewarms or
// retires warm instances to meet it — see controller.go.
//
// # Request lifecycle
//
// handle serves /function/<name> as a pipeline over one request value
// on its stack frame: drain check → deadline → declared-body cap →
// breaker → admission → acquire → hop round trip → response copy. Each
// stage passes the request on or returns an ending (outcome, status,
// refusal, headers owed, span event, backend blame), and one function,
// conclude, turns the ending into effects, each exactly once. A stage
// holding an instance releases it before returning, so no instance is
// held across the accounting. DESIGN's "Request lifecycle" table lists
// every ending; TestEveryExitCountsOnce pins it.
//
// Every event is counted at one site, in the metrics registry, and the
// JSON views (/system/stats, the *Stats methods) read the registry
// back. Only the warm path's integers (Stats.Requests, Reused,
// ColdStarts, the eviction counts) stay under the shard lock they are
// already bumped under.
//
// # Hot-path concurrency
//
// All mutable per-function state — the idle warm list, the circuit
// breaker, controller demand accounting and the stats deltas — lives in
// a per-function shard guarded by its own small mutex. Shards are
// resolved through a read-mostly RWMutex registry, so requests for two
// different functions never contend on a lock, and requests for the
// same function only serialize for the few instructions of pool
// bookkeeping. Aggregate views (Stats, /system/stats) sum across shards
// on demand, locking one shard at a time: there is no global pause.
// Metric observations go through per-shard pre-resolved obs handles
// whose updates are lock-free atomics.
//
// This package exists so the examples and the hotcd daemon can
// demonstrate the middleware against a real network stack; the figure
// benchmarks use the deterministic simulated pipeline in the parent
// package.
package live

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotc/internal/admission"
	"hotc/internal/faas"
	"hotc/internal/obs"
	"hotc/internal/prefork"
	"hotc/internal/sharing"
)

// Handler is the buffered function body: bytes in, bytes out. The
// watchdog runs it through a pooled-buffer shim, so existing []byte
// handlers ride the streaming data path unchanged.
type Handler func(body []byte) ([]byte, error)

// StreamHandler is the streaming function body: consume the request
// from r, produce the response on w. Handlers that can work chunk-wise
// never hold the full payload in memory — the watchdog wires both ends
// straight to the socket.
type StreamHandler func(r io.Reader, w io.Writer) error

// Function describes a deployable function.
type Function struct {
	// Name routes requests: the gateway serves it at /function/<name>.
	Name string
	// Handler is the buffered business logic. Ignored when Stream is
	// set.
	Handler Handler
	// Stream, when set, takes precedence over Handler and processes the
	// body as a stream instead of a buffered slice.
	Stream StreamHandler
	// ColdStart is the artificial boot delay a fresh instance pays
	// (container create + runtime init + app init). When the explicit
	// phase fields below are zero, ColdStart is decomposed by the
	// gateway's configured phase split (PoolConfig.Boot*Frac).
	ColdStart time.Duration

	// Image, when set, names this function's container image
	// ("name:tag") in the gateway's registry. Boots then admit the
	// image's layers into the layer cache and pay the pull phase only
	// for layers actually missing — functions sharing base layers skip
	// most of the pull.
	Image string
	// Pull, RuntimeInit and AppInit, when any is set, spell the boot
	// phases out explicitly instead of splitting ColdStart: image
	// pull/unpack, generic runtime init (pre-paid by a pre-forked
	// generic), and function/app init (always paid).
	Pull, RuntimeInit, AppInit time.Duration

	// MemoryMB is the function's declared memory class for the sharing
	// policy (0 = unconstrained): a renter must fit inside its lender's
	// class.
	MemoryMB int
	// NoShare opts the function out of inter-function sharing on both
	// sides: it never lends its idle instances and never rents. The
	// zero value keeps sharing on, so existing deploys participate.
	NoShare bool

	// gen is the deployment generation, stamped by Register (see
	// Gateway.keepLocked).
	gen uint64
}

// instance is one live watchdog bound to a loopback port, running the
// function handler. The server itself is a prefork.Watchdog: full cold
// boots and generic-pool handoffs produce the same instance shape, and
// stop() is deterministic (the accept-loop goroutine has exited when it
// returns).
type instance struct {
	fn Function
	wd *prefork.Watchdog
	// hop is the instance's own connection to wd, dialed with the boot
	// and touched only by whoever holds the instance (see hop.go). A
	// sharing lease moves it to the renter's struct.
	hop *hop
	// idleSince is when the instance last returned to the warm pool
	// (set under the shard lock; read by the janitor).
	idleSince time.Time
	// tainted marks an instance claimed by an inter-function lease:
	// from the moment it is set the instance must never be lent again
	// or re-enter any idle list under its former function. The lease
	// path abandons the tainted struct after the wipe and hands the
	// renter a fresh one around the same watchdog.
	tainted atomic.Bool
}

// newInstance wraps a specialized watchdog as fn's instance; only boot
// calls it. This is where the hop connection is dialed — once per
// watchdog, as the last step of the boot. A rented boot passes the
// lender's connection along instead: same watchdog, nothing to dial.
func (g *Gateway) newInstance(ctx context.Context, fn Function, wd *prefork.Watchdog, conn *hop) (*instance, error) {
	if conn == nil {
		var err error
		if conn, err = g.dialHop(ctx, wd.Addr()); err != nil {
			return nil, fmt.Errorf("live: dial watchdog: %w", err)
		}
	}
	return &instance{fn: fn, wd: wd, hop: conn}, nil
}

// stop tears the instance down. The connection goes first: a watchdog
// shutdown waits on connections that never carried a request.
func (i *instance) stop() {
	i.hop.close()
	i.wd.Stop()
}

// stopAll shuts instances down concurrently and waits for all of them:
// each Shutdown can block up to its timeout on active connections, so
// serial teardown would cost the sum instead of the max.
func stopAll(insts []*instance) {
	var wg sync.WaitGroup
	for _, inst := range insts {
		wg.Add(1)
		go func(i *instance) {
			defer wg.Done()
			i.stop()
		}(inst)
	}
	wg.Wait()
}

// Stats counts gateway activity.
type Stats struct {
	Requests   int
	ColdStarts int
	Reused     int
	// GenericHandoffs counts the subset of ColdStarts served by
	// specializing a pre-forked generic watchdog instead of a full
	// boot (these requests still report X-Hotc-Reused: false).
	GenericHandoffs int
	// RentedBoots counts the subset of ColdStarts served by leasing an
	// idle instance from another function (X-Hotc-Boot: rented; these
	// requests also report X-Hotc-Reused: false).
	RentedBoots int
	// Prewarmed counts instances the controller booted ahead of demand.
	Prewarmed int
	// Retired counts instances stopped by controller scale-down or the
	// warm-pool cap's oldest-first eviction.
	Retired int
	// Expired counts instances stopped by keep-alive (idle TTL) expiry.
	Expired int
	// Canceled counts requests abandoned mid-flight or mid-queue by
	// client disconnect or deadline expiry: the sum of
	// hotc_requests_total{outcome="canceled"}, read back by Gateway.Stats.
	Canceled int
}

// add accumulates another shard's under-lock deltas (Canceled is not
// one: Gateway.Stats reads it from the registry).
func (s *Stats) add(o Stats) {
	s.Requests += o.Requests
	s.ColdStarts += o.ColdStarts
	s.Reused += o.Reused
	s.GenericHandoffs += o.GenericHandoffs
	s.RentedBoots += o.RentedBoots
	s.Prewarmed += o.Prewarmed
	s.Retired += o.Retired
	s.Expired += o.Expired
}

// shard is one function's slice of the gateway: everything a request
// for that function mutates lives here, behind the shard's own mutex,
// so functions never contend with each other and aggregate reads
// (Stats) never pause the request path globally.
type shard struct {
	name string

	mu sync.Mutex
	// fn is the deployed function (Register may replace it in place).
	fn Function
	// idle is the warm pool, oldest first; written only by the list
	// methods in warmlist.go.
	idle []*instance
	// stats are this function's deltas; Gateway.Stats sums shards.
	stats Stats
	// breaker guards the function; nil when breaking is off
	// (PoolConfig.BreakerThreshold 0). Set by newShard, used under mu.
	breaker *faas.Breaker
	// ctl is the adaptive-control state: in-flight demand accounting,
	// the predictor and its evaluation series.
	ctl fnControl

	// adm is the function's admission queue; nil when overload control
	// is off. It has its own internal lock and is never touched under
	// s.mu (queueing must not serialize with pool bookkeeping).
	adm *admission.Queue

	// m holds the pre-resolved per-function metric handles, fixed when
	// the shard is created; updates are lock-free atomics.
	m *shardMetrics
}

// Gateway proxies /function/<name> requests to watchdog instances.
type Gateway struct {
	// cfg is the gateway's one configuration, defaults resolved by New
	// and never written again: every policy below reads it directly.
	cfg PoolConfig
	// reuse is false only for NewGateway(false), the boot-per-request
	// baseline.
	reuse bool
	// epoch anchors the breaker's monotonic clock.
	epoch time.Time
	// nowFn is the wall clock; tests inject a fake for deterministic
	// keep-alive and controller timing.
	nowFn func() time.Time
	// sleep is pay, which every modelled delay (boot phase, wipe, generic
	// boot) goes through; tests swap it to read what a boot pays.
	sleep func(ctx context.Context, d time.Duration) error

	// smu guards the shard registry and the gateway lifecycle
	// transitions (start/stop/register). The request path only ever
	// takes the read side, for the map lookup.
	smu    sync.RWMutex
	shards map[string]*shard
	// ordered is the registry every walk over the functions reads: the
	// same shards sorted by name, so the control cycle, the lender pick
	// and the budget's ties see one order. Register replaces the slice,
	// never mutates it, so it is iterated outside smu.
	ordered []*shard

	// stopped flips once in Stop (under smu); the request path and the
	// control cycle read it lock-free.
	stopped atomic.Bool

	// draining, while set, refuses new /function/ placements with 503 +
	// X-Hotc-Draining while in-flight work (and the warm pool, the
	// control cycle, the management API) keeps running — the node-level
	// half of a routed cluster's drain. Reversible, read lock-free.
	draining atomic.Bool

	// life is the gateway's own lifetime, ended by Stop: the control
	// cycle and every boot no request waits on run under it.
	life    context.Context
	endLife context.CancelFunc
	// wg tracks every background goroutine the gateway owns: the
	// control cycle and prewarm boots.
	// Adds happen under smu (read or write side) after a stopped
	// check, so they cannot race Stop's Wait.
	wg sync.WaitGroup

	// cold is the fast-cold-path state: image catalog, layer cache,
	// generic pre-forked pool and their counters (see coldpath.go).
	cold coldPath

	// share is the inter-function sharing state: parsed policy and
	// lease-outcome counters (see sharing.go).
	share shareState

	// reg is the gateway's own metrics registry; obs holds the families
	// registered on it plus the pre-resolved hot-path handles.
	reg *obs.Registry
	obs *instruments

	// trace is the live-tracing state: span ring, tail sampler and ID
	// generator. nil = tracing off (PoolConfig.DisableTracing).
	trace *tracing
	// slo is the SLO monitor fed by every completed request. nil = no
	// objective armed.
	slo *obs.SLOMonitor

	server *http.Server
	lis    net.Listener
	// dial opens an instance's connection to its watchdog; tests wrap it
	// to count dials.
	dial func(ctx context.Context, addr string) (net.Conn, error)
}

// shard returns the function's shard, or nil if it was never
// registered. One read-locked map lookup: the request path's only
// touch of gateway-global state.
func (g *Gateway) shard(name string) *shard {
	g.smu.RLock()
	s := g.shards[name]
	g.smu.RUnlock()
	return s
}

// snapshotShards returns the registry, in name order, for iteration
// outside the registry lock.
func (g *Gateway) snapshotShards() []*shard {
	g.smu.RLock()
	defer g.smu.RUnlock()
	return g.ordered
}

// newShard creates a function's shard with everything the config gives
// it — predictor, sharing classifier, admission queue, breaker, metric
// handles — so a function is set up the same whenever it registers.
func (g *Gateway) newShard(name string) *shard {
	s := &shard{name: name, m: g.obs.forFunction(name)}
	if g.cfg.NewPredictor != nil {
		s.ctl.Pred = g.cfg.NewPredictor()
	}
	if g.cfg.Share {
		s.ctl.share = *sharing.NewClassifier(g.share.classifier)
	}
	if g.cfg.MaxInFlight > 0 {
		s.adm = g.newAdmissionQueue(s)
	}
	if g.cfg.BreakerThreshold > 0 {
		s.breaker = faas.NewBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerOpenFor)
	}
	return s
}

// Register deploys a function. One registered after Start is in the
// registry like any other, so the control cycle's next tick reaches it.
// Re-registering a name swaps the function in place and starts a new
// deployment generation: the old version's warm instances are drained
// here, and one in flight across the redeploy is stopped when it comes
// back (keepLocked).
func (g *Gateway) Register(fn Function) error {
	if fn.Name == "" || (fn.Handler == nil && fn.Stream == nil) {
		return fmt.Errorf("live: function needs a name and a handler")
	}
	g.smu.Lock()
	s, existed := g.shards[fn.Name]
	if !existed {
		s = g.newShard(fn.Name)
		g.shards[fn.Name] = s
		ordered := make([]*shard, 0, len(g.shards))
		for _, sh := range g.shards {
			ordered = append(ordered, sh)
		}
		slices.SortFunc(ordered, func(a, b *shard) int { return strings.Compare(a.name, b.name) })
		g.ordered = ordered
	}
	g.smu.Unlock()
	s.mu.Lock()
	fn.gen = s.fn.gen + 1
	s.fn = fn
	old := s.takeOldestLocked(len(s.idle), &s.stats.Retired)
	s.mu.Unlock()
	stopAll(old)
	return nil
}

// Start binds the gateway to a loopback port and returns its base URL.
func (g *Gateway) Start() (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/function/", g.handle)
	return g.startOn("127.0.0.1:0", mux)
}

// startOn binds to an explicit address and launches the control
// cycle.
func (g *Gateway) startOn(addr string, mux *http.ServeMux) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("live: gateway listen: %w", err)
	}
	g.lis = lis
	g.server = &http.Server{Handler: mux}
	go g.server.Serve(lis)
	g.startCycle()
	return "http://" + lis.Addr().String(), nil
}

// Stop shuts the gateway, the control cycle and all warm instances
// down. It is idempotent. Instances are collected shard by shard but
// stopped outside the locks, concurrently: holding any lock across N
// serial 1s-timeout shutdowns would block gateway methods for up to N
// seconds.
func (g *Gateway) Stop() {
	g.smu.Lock()
	if g.stopped.Load() {
		g.smu.Unlock()
		return
	}
	// Mark stopped before anything else: from here on, release() and
	// the controller/janitor tear instances down instead of touching
	// the pool, so an in-flight request finishing after Stop cannot
	// resurrect an instance into a drained shard.
	g.stopped.Store(true)
	g.smu.Unlock()
	shards := g.snapshotShards()

	// Wake every queued request with a "stopped" refusal before the
	// server drains: a waiter blocked in its admission queue is an
	// in-flight handler Shutdown would otherwise wait out (or strand).
	for _, s := range shards {
		if s.adm != nil {
			s.adm.Stop()
		}
	}
	g.endLife()
	if g.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		g.server.Shutdown(ctx)
		cancel()
	}
	var insts []*instance
	for _, s := range shards {
		s.mu.Lock()
		insts = append(insts, s.takeOldestLocked(len(s.idle), nil)...)
		s.mu.Unlock()
	}
	stopAll(insts)
	// The generic pre-forked pool goes down with the gateway: idle
	// generics stop concurrently, in-flight refills are waited out.
	if g.cold.pool != nil {
		g.cold.pool.Stop()
	}
	g.wg.Wait()
}

// SetDraining marks the gateway as (not) accepting new function
// placements. While draining, /function/ requests are refused with
// 503 + the X-Hotc-Draining header and an honest Retry-After is
// deliberately absent (the router should place elsewhere, not retry
// here); requests already admitted run to completion and return their
// instances to the warm pool as usual. Drain is reversible: a router
// rebalance or rolling restart undrains when done.
func (g *Gateway) SetDraining(on bool) { g.draining.Store(on) }

// Draining reports whether the gateway is refusing new placements.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Stats sums the per-shard counters into a snapshot. Each shard is
// locked for a handful of integer reads; requests for other functions
// proceed untouched and requests for the sampled function wait only
// for that copy — there is no global pause.
func (g *Gateway) Stats() Stats {
	var total Stats
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		total.add(s.stats)
		s.mu.Unlock()
		total.Canceled += int(s.m.reqCanceled.Value())
	}
	return total
}

// WarmInstances reports the number of idle warm instances for a
// function.
func (g *Gateway) WarmInstances(name string) int {
	s := g.shard(name)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle)
}

// acquire is Algorithm 1: take the function's newest warm instance, or
// climb the cold ladder under the request's context — rent (cheapest:
// runtime AND layers are in place), else specialize a generic, else boot
// in full — tracking in-flight demand for the controller. An error (ctx's
// when the request was abandoned mid-boot) leaves the accounting closed
// and nothing running.
func (g *Gateway) acquire(ctx context.Context, s *shard) (*instance, bootInfo, error) {
	s.mu.Lock()
	fn := s.fn
	s.ctl.Begin()
	s.stats.Requests++
	if inst := s.popNewestLocked(); inst != nil {
		s.stats.Reused++
		s.mu.Unlock()
		return inst, bootInfo{mode: bootWarm}, nil
	}
	s.stats.ColdStarts++
	s.mu.Unlock()

	inst, info, err := g.leaseInstance(ctx, s, fn) // boots run outside the lock
	if inst == nil && err == nil {
		inst, info, err = g.bootInstance(ctx, fn)
	}
	s.mu.Lock()
	switch {
	case err != nil:
		s.ctl.End()
	case info.mode == bootRented:
		s.stats.RentedBoots++
	case info.mode == bootGeneric:
		s.stats.GenericHandoffs++
	}
	s.mu.Unlock()
	return inst, info, err
}

// keepLocked reports whether inst may enter s's warm list: not once the
// gateway stopped (a request or prewarm that outlives Stop must not leak
// its watchdog into a drained pool), and not when the function was
// redeployed since inst booted. Caller holds s.mu.
func (g *Gateway) keepLocked(s *shard, inst *instance) bool {
	return !g.stopped.Load() && inst.fn.gen == s.fn.gen
}

// release is Algorithm 2, the one way an instance leaves its request:
// back as the newest warm instance, the warm cap evicting the oldest —
// or torn down, when it is suspect after a transport failure (!healthy),
// reuse is off or keepLocked refuses it.
func (g *Gateway) release(s *shard, inst *instance, healthy bool) {
	s.mu.Lock()
	s.ctl.End()
	doomed := inst
	if healthy && g.reuse && g.keepLocked(s, inst) {
		doomed = nil
		if limit := g.cfg.MaxIdlePerFunction; limit > 0 && len(s.idle) >= limit {
			doomed = s.takeOldestLocked(1, &s.stats.Retired)[0]
		}
		s.ctl.lastDone = g.nowFn()
		s.pushLocked(inst, s.ctl.lastDone)
	}
	s.mu.Unlock()
	if doomed != nil {
		doomed.stop()
	}
}

// redial replaces a connection finish had to close, so the instance can
// re-enter the idle list; false means the watchdog is unreachable. The
// request may be over by now, so the dial runs under the gateway's
// lifetime, not the request's.
func (g *Gateway) redial(inst *instance) bool {
	conn, err := g.dialHop(g.life, inst.wd.Addr())
	if err != nil {
		return false
	}
	inst.hop = conn
	return true
}

// request is one /function/ request on its way through the pipeline.
// It lives on handle's stack frame and is only ever lent down the call
// chain, so the warm path allocates nothing for it.
type request struct {
	s *shard
	w http.ResponseWriter
	r *http.Request
	// deadline bounds the queue wait and the backend call; zero = none.
	deadline time.Time
	// ticket is the admission slot, nil with admission off; handle gives
	// it back after the accounting.
	ticket *admission.Ticket
	// rt carries the start time and the tenant along with the trace.
	rt reqTrace
}

// ending is how a request leaves the pipeline. A stage returns the zero
// ending (no outcome) to pass the request on, or fills one in and the
// request is over: conclude turns it into every effect the gateway owes.
type ending struct {
	// outcome is the hotc_requests_total label: ok|error|rejected|canceled.
	outcome string
	// status is the span's and the SLO record's status: the status line,
	// or 499 when the client left before one could go out.
	status int
	// refusal is the body conclude writes under status. Empty when the
	// status line is already committed or nobody is listening.
	refusal string
	// The refusal's Retry-After, X-Hotc-Rejected and X-Hotc-Draining.
	retryAfter time.Duration
	rejected   admission.Reason
	draining   bool
	// event and detail are the span event; errMsg is the span's Err.
	event, detail, errMsg string
	// blame is the resilience counter a backend failure is booked under
	// (boot.failures|proxy.failures) and feeds the breaker a failure;
	// healthy feeds it a success. Neither: the backend was not judged.
	blame   string
	healthy bool
}

// handle serves /function/<name>: open the request's trace, run it
// through the stages, and conclude whatever ending they reach.
func (g *Gateway) handle(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/function/")
	start := time.Now()

	// Unknown functions are a client error and must not feed the
	// breaker: a typo cannot open the circuit for a healthy function.
	// There is no shard to account under, so the 404 stays outside the
	// pipeline: one fixed series, no trace ID and no span — a scan of
	// random paths must not grow the registry or flush the span ring.
	s := g.shard(name)
	if s == nil {
		g.obs.requests.With("", "error").Inc() // function="" is undeployable: one series for them all
		g.obs.latency.With("").ObserveDuration(time.Since(start))
		http.Error(w, fmt.Sprintf("live: unknown function %q", name), http.StatusNotFound)
		return
	}

	// Join or mint a W3C trace context and echo the trace ID on every
	// response of a deployed function, refusals included, so any client
	// can look its request up in /system/trace. req.rt only reaches the
	// heap if the tail sampler keeps the span.
	req := request{s: s, w: w, r: r}
	req.rt.name, req.rt.start = name, start
	if g.trace != nil {
		g.trace.begin(&req.rt, r, start)
		w.Header().Set(TraceIDHeader, req.rt.tc.TraceIDString())
	}
	defer req.done()
	g.conclude(&req, g.serve(&req))
}

// done frees the admission slot, once the accounting is closed: a
// drained queue means every request it admitted is in the books.
func (req *request) done() {
	if req.ticket != nil {
		req.ticket.Done()
	}
}

// serve runs the stages in order — drain check, deadline, declared-body
// cap, breaker, admission, acquire, then proxy's hop round trip and
// response copy — up to the first ending. Nothing before admit spends
// anything on the request.
func (g *Gateway) serve(req *request) ending {
	name := req.s.name
	// A draining node refuses every new placement before spending
	// anything on it — in-flight requests (already past this check)
	// run to completion, which is what makes drain lossless.
	if g.draining.Load() {
		return ending{outcome: "rejected", status: http.StatusServiceUnavailable,
			refusal:  fmt.Sprintf("live: draining, not accepting %q", name),
			draining: true, event: "drain-rejected", detail: "node draining"}
	}

	// Resolve the request's deadline (header override, else the
	// configured default) before committing anything: it bounds both
	// the queue wait and the backend call.
	var err error
	if req.deadline, err = g.requestDeadline(req.r, req.rt.start); err != nil {
		return ending{outcome: "rejected", status: http.StatusBadRequest,
			refusal: err.Error(), errMsg: "bad deadline header"}
	}
	if req.rt.tenant = req.r.Header.Get(TenantHeader); req.rt.tenant == "" {
		req.rt.tenant = name // untagged requests bill to the function
	}

	// Bound the request body before any instance is committed: a
	// declared-oversize body is rejected for free here; an undeclared
	// (chunked) one is caught by MaxBytesReader mid-proxy.
	if limit := g.cfg.MaxBodyBytes; limit > 0 {
		if req.r.ContentLength > limit {
			return bodyTooLarge()
		}
		req.r.Body = http.MaxBytesReader(req.w, req.r.Body, limit)
	}

	// While the breaker is open, fast-fail instead of piling boots onto
	// a failing backend — with the honest retry hint: the remainder of
	// the breaker's open window.
	if ok, retryAfter := g.breakerAllow(req.s); !ok {
		return ending{outcome: "rejected", status: http.StatusServiceUnavailable,
			refusal:    fmt.Sprintf("live: circuit breaker open for %q", name),
			retryAfter: retryAfter, event: "breaker-rejected", detail: "circuit open"}
	}

	if e := g.admit(req); e.outcome != "" {
		return e
	}
	// The backend call runs under the client's context bounded by the
	// deadline: a disconnect or an expired deadline cancels in-flight
	// backend work instead of letting it run to waste.
	ctx := req.r.Context()
	if !req.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.deadline)
		defer cancel()
	}
	inst, boot, err := g.acquire(ctx, req.s)
	req.rt.reused = boot.mode == bootWarm
	if err != nil {
		if ctx.Err() != nil {
			// Abandoned mid-boot: the boot stopped what it had started,
			// and the backend is blameless — no breaker, no boot.failures.
			return g.abandoned(req, false)
		}
		return ending{outcome: "error", status: http.StatusBadGateway,
			refusal: err.Error(), errMsg: err.Error(), blame: "boot.failures"}
	}
	// Annotate how the cold path was paid — generic handoff vs a full
	// boot. Warm reuse stays out: the hot path adds no span events.
	switch boot.mode {
	case bootRented:
		g.traceEvent(&req.rt, "boot", "rented-zygote")
	case bootGeneric:
		g.traceEvent(&req.rt, "boot", "generic-handoff")
	case bootCold:
		g.traceEvent(&req.rt, "boot", "full-cold")
	}
	return g.proxy(ctx, req, inst, boot.mode)
}

// bodyTooLarge ends a request whose body exceeds MaxBodyBytes, declared
// up front or discovered mid-proxy: the client's doing, so no breaker.
func bodyTooLarge() ending {
	return ending{outcome: "rejected", status: http.StatusRequestEntityTooLarge,
		refusal: "live: request body too large", errMsg: "request body too large"}
}

// abandoned ends a request whose context died mid-boot or mid-flight:
// 504 for a deadline that expired with no status line committed yet,
// nothing for a vanished client (the span records 499). The backend is
// blameless either way — the stage already tore the instance down.
func (g *Gateway) abandoned(req *request, committed bool) ending {
	g.obs.admCanceled.Inc()
	if req.r.Context().Err() == nil && !committed {
		return ending{outcome: "canceled", status: http.StatusGatewayTimeout,
			refusal: "live: deadline exceeded", rejected: admission.ReasonDeadline,
			event: "canceled", detail: "deadline exceeded mid-flight"}
	}
	return ending{outcome: "canceled", status: statusClientClosedRequest,
		event: "canceled", detail: "client disconnect mid-flight"}
}

// proxy is the hop round trip and the response copy. It owns inst: every
// path releases it — torn down when the hop made it suspect — before
// returning, so no instance is held across the accounting.
func (g *Gateway) proxy(ctx context.Context, req *request, inst *instance, mode bootMode) ending {
	s, w, r, rt := req.s, req.w, req.r, &req.rt
	// Forward to the watchdog over the instance's own connection,
	// carrying the trace context so the watchdog returns its span
	// timestamps. A failed hop makes the instance suspect: tear it down
	// rather than re-pool it — unless the failure was the client's own
	// doing (an oversized body tripping MaxBytesReader, a disconnect, an
	// expired deadline), which must not feed the breaker.
	var traceparent string
	if rt.active {
		traceparent = rt.tc.Traceparent()
	}
	resp, err := inst.hop.roundTrip(ctx, r.Body, r.ContentLength, traceparent)
	if err != nil {
		g.release(s, inst, false)
		switch {
		case isMaxBytesErr(err):
			return bodyTooLarge()
		case ctx.Err() != nil:
			return g.abandoned(req, false)
		}
		return ending{outcome: "error", status: http.StatusBadGateway,
			refusal: err.Error(), errMsg: err.Error(), blame: "proxy.failures"}
	}
	rt.served = true
	if g.trace != nil {
		g.trace.noteWatchdog(resp.Header, rt)
	}

	// Forward the watchdog's response headers (Content-Type etc.) and
	// length before committing the status line, then stream the body to
	// the client through a pooled chunk buffer: the gateway never holds
	// more than one 32 KiB chunk of any response in memory, and at
	// steady state the copy allocates nothing. Streaming functions
	// produce response bytes while the request body is still being
	// forwarded, so the gateway's own server must run full duplex —
	// otherwise its first response write aborts the client's body reads
	// and truncates the upstream request.
	// The watchdog's X-Hotc-Span-* timestamps (and its trailer
	// declaration) are consumed above, not forwarded to the client.
	http.NewResponseController(w).EnableFullDuplex()
	hdr := w.Header()
	for k, vv := range resp.Header {
		if internalRespHeader(k) {
			continue
		}
		for _, v := range vv {
			hdr.Add(k, v)
		}
	}
	hdr.Set("X-Hotc-Reused", strconv.FormatBool(rt.reused))
	if !rt.reused {
		// Cold responses also say which cold path served them; warm
		// responses skip the extra header (zero-alloc hot path).
		hdr.Set(BootHeader, mode.String())
	}
	if resp.ContentLength >= 0 {
		hdr.Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	src := readTracker{r: resp.Body}
	n, copyErr := copyPooled(w, &src)
	if copyErr != nil && src.failed {
		// The backend read died mid-stream. The status line is already
		// committed, so the client sees a truncated body; the instance
		// is suspect and its connection poisoned — close without
		// draining and tear it down. When the read died because the
		// request context did (client disconnect / deadline), the
		// watchdog is blameless: same teardown, no breaker.
		inst.hop.abort()
		g.release(s, inst, false)
		if ctx.Err() != nil {
			return g.abandoned(req, true)
		}
		return ending{outcome: "error", status: resp.StatusCode,
			errMsg: "backend read failed mid-stream", blame: "proxy.failures"}
	}
	// The round-trip worked (a handler-level error status is the
	// function's business, not a runtime fault) — or only the client's
	// write side failed, which the watchdog cannot be blamed for.
	// Drain whatever the client refused so the instance keeps its
	// connection, then re-pool it. A chunked (streaming) reply carries
	// moments (4) and (5) as trailers, readable only now that the body
	// is fully drained. An instance whose connection could not be kept
	// (too much left to drain, Connection: close, a body the watchdog
	// answered without reading) re-dials before it goes back: a pooled
	// instance always holds a usable connection.
	drainClose(resp.Body)
	if g.trace != nil {
		g.trace.noteWatchdog(resp.Trailer, rt)
	}
	g.release(s, inst, inst.hop.finish() || g.redial(inst))
	if rt.reused {
		g.obs.startsWarm.Inc()
	} else {
		g.obs.startsCold.Inc()
	}
	g.obs.bodyBytes.Observe(float64(n))
	if resp.StatusCode >= 400 {
		return ending{outcome: "error", status: resp.StatusCode, healthy: true}
	}
	// Per-tenant goodput: completed useful work, the number the
	// saturation curves are drawn from. It bills the tenant the queue
	// resolved (a bounded set); with admission off, the function.
	tenant := s.name
	if req.ticket != nil {
		tenant = req.ticket.Tenant()
	}
	g.obs.admGoodput.With(tenant).Inc()
	return ending{outcome: "ok", status: resp.StatusCode, healthy: true}
}

// conclude is the one way out of handle: it turns an ending into every
// effect the gateway owes for the request, each exactly once — the
// breaker's verdict, the refusal (when no status line went out yet), the
// outcome and latency, the span event, the SLO record and the span.
func (g *Gateway) conclude(req *request, e ending) {
	switch {
	case e.blame != "":
		g.breakerFailure(req.s, e.blame)
	case e.healthy:
		g.breakerSuccess(req.s)
	}
	if e.refusal != "" {
		h := req.w.Header()
		if e.retryAfter > 0 {
			// Whole seconds, at least 1 so the hint is actionable.
			h.Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(e.retryAfter.Seconds())))))
		}
		if e.rejected != "" {
			h.Set(RejectedHeader, string(e.rejected))
		}
		if e.draining {
			h.Set(DrainingHeader, "true")
		}
		http.Error(req.w, e.refusal, e.status)
	}
	req.s.observe(e.outcome, req.rt.start)
	if e.event != "" {
		g.traceEvent(&req.rt, e.event, e.detail)
	}
	g.finishRequest(req.s, &req.rt, e.status, e.errMsg)
}
