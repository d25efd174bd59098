// Package live is a real (non-simulated) miniature of the OpenFaaS
// pipeline the paper instruments: an HTTP gateway whose functions run on
// one of two backends (PoolConfig.Backend). On the socket backend it
// proxies requests to per-function watchdogs over actual TCP sockets on
// localhost: each watchdog is a loopback listener whose connections
// internal/hop's server half answers with the function handler — the
// role OpenFaaS's "tiny Golang HTTP server" plays inside the container.
// On the in-process backend, the default, the gateway calls the function
// itself, on the request's own goroutine. The gateway's own clients are
// answered by the same server in its front-door role.
//
// Cold start is modelled by a configurable delay when a new watchdog
// instance boots (standing in for container creation, runtime init and
// application init); the gateway keeps finished instances warm in a
// pool, HotC-style, and a request that finds one skips that delay.
//
// # Configuration
//
// A gateway is configured once: New(PoolConfig) resolves every default
// in one function, builds the metrics registry, tracer, SLO monitor,
// layer cache and generic pool, and keeps the resolved config for the
// gateway's whole life — nothing is settable afterwards, and a
// function registered before Start is set up exactly like one
// registered after. New builds the whole node — its routes, its node
// metrics and its one clock (clock.go).
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
// breaker → admission → acquire → hop round trip → response copy (in
// process: the function call). Each
// stage passes the request on or returns an ending (outcome, status,
// refusal, headers owed, span event, backend blame), and one function,
// conclude, turns the ending into effects, each exactly once. A stage
// holding an instance releases it before returning, so no instance is
// held across the accounting. DESIGN's "Request lifecycle" table lists
// every ending; TestEveryExitCountsOnce pins it.
//
// Every event is counted at one site, in the metrics registry, and the
// JSON views (/system/stats, the *Stats methods) read the registry
// back.
//
// # Hot-path concurrency
//
// All mutable per-function state — the idle warm list, the circuit
// breaker and controller demand accounting — lives in a per-function
// shard guarded by its own small mutex. Shards are resolved through a
// read-mostly RWMutex registry, so requests for two different functions
// never contend on a lock, and requests for the same function only
// serialize for the few instructions of pool bookkeeping. Counts are read
// back from the registry without any shard lock; views of the warm lists
// lock one shard at a time: there is no global pause.
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
	"hotc/internal/config"
	"hotc/internal/hop"
	"hotc/internal/kernel"
	"hotc/internal/obs"
	"hotc/internal/prefork"
	"hotc/internal/sharing"
)

// Handler is the buffered function body: bytes in, bytes out. The
// watchdog runs it through a pooled-buffer shim, so existing []byte
// handlers ride the streaming data path unchanged. ctx is the request's:
// in process it ends at the request's deadline or when its client
// leaves, and a function that waits should wait on it (DESIGN §10).
type Handler func(ctx context.Context, body []byte) ([]byte, error)

// StreamHandler is the streaming function body: consume the request
// from r, produce the response on w. Handlers that can work chunk-wise
// never hold the full payload in memory — the watchdog wires both ends
// straight to the socket. ctx is the request's, as for Handler.
type StreamHandler func(ctx context.Context, r io.Reader, w io.Writer) error

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
	// (image pull + runtime init + app init), split by the fixed §III.B
	// fractions bootPullFrac and bootRuntimeFrac (coldpath.go), app init
	// taking the rest.
	ColdStart time.Duration

	// Image, when set, names this function's container image
	// ("name:tag") in the gateway's registry. Boots then admit the
	// image's layers into the layer cache and pay the pull phase only
	// for layers actually missing — functions sharing base layers skip
	// most of the pull.
	Image string

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
	// key is the runtime key, config.Runtime{Image, MemoryMB}.Key(),
	// stamped by Register; "" without an image, which matches no other
	// function (see sharing.Candidate.Key).
	key string
}

// instance is one live watchdog running the function handler: bound to
// a loopback port on the socket backend, with no socket in process. The
// watchdog is a prefork.Watchdog: full cold boots and generic-pool
// handoffs produce the same instance shape on either backend, and stop()
// is deterministic (the accept-loop goroutine, if any, has exited when
// it returns).
type instance struct {
	fn Function
	wd *prefork.Watchdog
	// hop is the instance's own connection to wd, dialed with the boot
	// and touched only by whoever holds the instance (package hop); nil
	// in process. A sharing lease moves it to the renter's struct.
	hop *hop.Conn
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

// stop tears the instance down: its connection, if it holds one, then
// its watchdog.
func (i *instance) stop() {
	if i.hop != nil {
		i.hop.Close()
	}
	i.wd.Stop()
}

// dialHop opens an instance's connection to the watchdog at addr.
func (g *Gateway) dialHop(ctx context.Context, addr string) (*hop.Conn, error) {
	conn, err := g.dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := hop.New(conn, addr)
	c.OnBody(g.obs.wireBody)
	return c, nil
}

// watchdogHeader is the one header every request to a watchdog carries.
var watchdogHeader = http.Header{"Content-Type": {"application/octet-stream"}}

// watchdogHead is the head of a request to a watchdog: a POST of the
// client's body to /, with the trace context when the request is traced.
func watchdogHead(traceparent string) hop.Head {
	return hop.Head{Method: http.MethodPost, Path: "/", Header: watchdogHeader, Traceparent: traceparent}
}

// stopAll shuts instances down concurrently and waits for all of them:
// each watchdog's Stop can wait up to a second for a running handler, so
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

// Stats counts gateway activity. Gateway.Stats reads each field back
// from the registry series named beside it, so Requests = Reused +
// ColdStarts in every snapshot.
type Stats struct {
	Requests   int // Reused + ColdStarts
	ColdStarts int // hotc_pool_misses_total
	Reused     int // hotc_pool_hits_total{kind="exact"}
	// GenericHandoffs and RentedBoots count the subsets of ColdStarts
	// served by specializing a pre-forked generic watchdog and by leasing
	// another function's idle instance (X-Hotc-Boot: generic|rented; both
	// report X-Hotc-Reused: false): hotc_coldpath_boots_total{mode}.
	GenericHandoffs int
	RentedBoots     int
	// Prewarmed counts controller boots ahead of demand that landed in a
	// warm list: hotc_pool_prewarmed_total.
	Prewarmed int
	// Retired counts warm instances evicted by controller scale-down, the
	// warm cap, memory-budget reclaim or a redeploy's drain, and Expired
	// those stopped by keep-alive expiry: hotc_pool_retired_total{reason}.
	Retired int
	Expired int
	// Canceled counts requests abandoned mid-queue or mid-flight by client
	// disconnect or deadline expiry: Σ hotc_requests_total{outcome="canceled"}.
	Canceled int
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
	// breaker guards the function; nil when breaking is off
	// (PoolConfig.BreakerThreshold 0). Set by newShard, used under mu.
	breaker *kernel.Breaker
	// ctl is the adaptive-control state: in-flight demand accounting,
	// the predictor and its evaluation series.
	ctl fnControl
	// role mirrors ctl.share.Role() for SharingStats, which takes no lock.
	role atomic.Int32

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
	// keep is IdleTTL's keep-alive rule, for the janitor and the controller.
	keep kernel.Fixed
	// clock is the node's one time source, the wall clock unless a test
	// swaps it; started is when New built the gateway, on it.
	clock   clock
	started time.Time

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
	// control cycle, prewarm boots and retire's teardowns.
	// Adds happen under smu (read or write side) after a stopped
	// check, so they cannot race Stop's Wait.
	wg sync.WaitGroup

	// cold is the fast-cold-path state: image catalog, layer cache,
	// generic pre-forked pool and their counters (see coldpath.go).
	cold coldPath
	// backend is where functions run, which New resolved
	// PoolConfig.Backend to (watchdog.go).
	backend backend

	// sharePolicy is PoolConfig.SharePolicy, parsed once by New: which
	// functions may rent each other's instances (see sharing.go).
	sharePolicy sharing.Policy

	// reg is the gateway's own metrics registry; obs holds the families
	// registered on it plus the pre-resolved hot-path handles.
	reg *obs.Registry
	obs *instruments

	// trace is the live-tracing state: span ring, tail sampler and ID
	// generator.
	trace *tracing
	// slo is the SLO monitor fed by every completed request. nil = no
	// objective armed.
	slo *obs.SLOMonitor

	// server is the front door: the hop's codec in its front-door role,
	// accepting the gateway's clients.
	server *hop.Server
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
// it — predictor, admission queue, breaker, metric handles — so a
// function is set up the same whenever it registers.
func (g *Gateway) newShard(name string) *shard {
	s := &shard{name: name, m: g.obs.forFunction(name)}
	if g.cfg.NewPredictor != nil {
		s.ctl.Pred = g.cfg.NewPredictor()
	}
	if g.cfg.MaxInFlight > 0 {
		s.adm = g.newAdmissionQueue(s)
	}
	if g.cfg.BreakerThreshold > 0 {
		s.breaker = kernel.NewBreaker(g.cfg.BreakerThreshold, g.cfg.BreakerOpenFor)
	}
	return s
}

// Register deploys a function. One registered after Start is in the
// registry like any other, so the control cycle's next tick reaches it.
// Re-registering a name swaps the function in place and starts a new
// deployment generation: the old version's warm instances are drained
// here, and one in flight across the redeploy is stopped when it comes
// back (keepLocked). A name holding a '/' is refused: no
// /function/<name> path reaches it through a router.
func (g *Gateway) Register(fn Function) error {
	if fn.Name == "" || (fn.Handler == nil && fn.Stream == nil) {
		return fmt.Errorf("live: function needs a name and a handler")
	}
	if strings.ContainsRune(fn.Name, '/') {
		return fmt.Errorf("live: function name %q holds a '/', which /function/<name> cannot route", fn.Name)
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
	if fn.Image != "" {
		fn.key = string(config.Runtime{Image: fn.Image, MemoryMB: fn.MemoryMB}.Key())
	}
	s.mu.Lock()
	fn.gen = s.fn.gen + 1
	s.fn = fn
	old := s.takeOldestLocked(len(s.idle), evictRedeploy)
	s.mu.Unlock()
	stopAll(old)
	return nil
}

// Start binds the gateway to a random loopback port and returns its base
// URL.
func (g *Gateway) Start() (string, error) { return g.StartOn("127.0.0.1:0") }

// StartOn binds the gateway to addr, serves its routes there with the
// front door and launches the control cycle. The front door enforces
// MaxBodyBytes on every body, declared or chunked.
func (g *Gateway) StartOn(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("live: gateway listen: %w", err)
	}
	g.server = &hop.Server{Handler: g.routes(), Front: true}
	g.server.LimitBodies(g.cfg.MaxBodyBytes)
	g.server.OnRefusal(kernel.WireRefusals(g.reg, "gateway"))
	g.server.OnPanic(kernel.WirePanics(g.reg, "gateway"))
	g.server.OnBody(g.obs.wireBody)
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
	// front door drains: a waiter blocked in its admission queue is an
	// in-flight handler its Stop would otherwise wait out (or strand).
	for _, s := range shards {
		if s.adm != nil {
			s.adm.Stop()
		}
	}
	g.endLife()
	if g.server != nil {
		g.server.Stop()
	}
	var insts []*instance
	for _, s := range shards {
		s.mu.Lock()
		insts = append(insts, s.takeOldestLocked(len(s.idle), notEvicted)...)
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

// Stats reads the gateway's counters back from its registry and takes
// no shard lock. Parts are read before their wholes — boots before
// misses — so a request booked between two reads can leave a whole
// larger than the sum of its parts, never smaller.
func (g *Gateway) Stats() Stats {
	ins := g.obs
	st := Stats{
		GenericHandoffs: int(ins.coldBoots[bootGeneric].Value()),
		RentedBoots:     int(ins.coldBoots[bootRented].Value()),
		Prewarmed:       int(ins.Prewarmed.Value()),
		Expired:         int(ins.poolRetired[evictExpired].Value()),
	}
	st.ColdStarts, st.Reused = int(ins.Misses.Value()), int(ins.HitsExact.Value())
	st.Requests = st.Reused + st.ColdStarts
	for r := evictScaleDown; r < evictExpired; r++ {
		st.Retired += int(ins.poolRetired[r].Value())
	}
	for _, s := range g.snapshotShards() {
		st.Canceled += int(s.m.reqCanceled.Value())
	}
	return st
}

// WarmInstances reads a function's hotc_live_warm_instances back.
func (g *Gateway) WarmInstances(name string) int {
	if s := g.shard(name); s != nil {
		return int(s.m.warm.Value())
	}
	return 0
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
	if inst := s.popNewestLocked(); inst != nil {
		s.mu.Unlock()
		g.obs.HitsExact.Inc()
		return inst, bootInfo{mode: bootWarm}, nil
	}
	s.mu.Unlock()
	g.obs.Misses.Inc()

	inst, info, err := g.leaseInstance(ctx, s, fn) // boots run outside the lock
	if inst == nil && err == nil {
		inst, info, err = g.bootInstance(ctx, fn)
	}
	if err != nil {
		s.mu.Lock()
		s.ctl.End()
		s.mu.Unlock()
		return inst, info, err
	}
	g.obs.coldBoots[info.mode].Inc()
	return inst, info, nil
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
// or torn down, when it is suspect after a transport failure (!healthy)
// or keepLocked refuses it.
func (g *Gateway) release(s *shard, inst *instance, healthy bool) {
	s.mu.Lock()
	s.ctl.End()
	doomed := inst
	if healthy && g.keepLocked(s, inst) {
		doomed = nil
		if limit := g.cfg.MaxIdlePerFunction; limit > 0 && len(s.idle) >= limit {
			doomed = s.takeOldestLocked(1, evictCap)[0]
		}
		s.ctl.lastDone = g.clock.Now()
		s.pushLocked(inst, s.ctl.lastDone)
	}
	s.mu.Unlock()
	if doomed != nil {
		g.retire(doomed)
	}
}

// retire stops inst off the caller's goroutine: a socket watchdog whose
// handler still runs (its request was abandoned mid-call) takes up to
// its stop grace, which the request must not wait out before its answer.
// g.wg holds the stop, so Stop leaks nothing; once the gateway has
// stopped, and in process, where a stop waits for nothing, inst stops
// here.
func (g *Gateway) retire(inst *instance) {
	g.smu.RLock()
	if g.stopped.Load() || inst.wd.Addr() == "" {
		g.smu.RUnlock()
		inst.stop()
		return
	}
	g.wg.Add(1)
	g.smu.RUnlock()
	go func() {
		defer g.wg.Done()
		inst.stop()
	}()
}

// redial replaces a connection finish had to close, so the instance can
// re-enter the idle list; false means the watchdog is unreachable. The
// request may be over by now, so the dial runs under the gateway's
// lifetime, not the request's.
func (g *Gateway) redial(inst *instance) bool {
	g.obs.redialed()
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
	// cut ends the client's connection once the books are closed: the
	// status line is out and the reply is not whole, so the client must
	// see a truncated body, not a short complete one.
	cut bool
}

// handle serves /function/<name>: open the request's trace, run it
// through the stages, and conclude whatever ending they reach.
func (g *Gateway) handle(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/function/")
	start := g.clock.Now()

	// Unknown functions are a client error and must not feed the
	// breaker: a typo cannot open the circuit for a healthy function.
	// There is no shard to account under, so the 404 stays outside the
	// pipeline: one fixed series, no trace ID and no span — a scan of
	// random paths must not grow the registry or flush the span ring.
	s := g.shard(name)
	if s == nil {
		g.obs.Requests.With("", "error").Inc() // function="" is undeployable: one series for them all
		g.obs.Latency.With("").ObserveDuration(g.clock.Now().Sub(start))
		http.Error(w, fmt.Sprintf("live: unknown function %q", name), http.StatusNotFound)
		return
	}

	// Join or mint a W3C trace context and echo the trace ID on every
	// response of a deployed function, refusals included, so any client
	// can look its request up in /system/trace. req.rt only reaches the
	// heap if the tail sampler keeps the span.
	req := request{s: s, w: w, r: r}
	req.rt.name, req.rt.start = name, start
	g.trace.begin(&req.rt, r, start)
	w.Header().Set(TraceIDHeader, req.rt.tc.TraceIDString())
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
// cap, breaker, admission, acquire, then the backend's exchange (a hop
// round trip and response copy, or the function call in process) — up
// to the first ending. Nothing before admit spends
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
	// (chunked) one trips the front door's limit mid-proxy.
	if limit := g.cfg.MaxBodyBytes; limit > 0 && req.r.ContentLength > limit {
		return bodyTooLarge()
	}

	// While the breaker is open, fast-fail instead of piling boots onto
	// a failing backend — with the honest retry hint: the remainder of
	// the breaker's open window.
	if ok, retryAfter := g.breakerAllow(req.s); !ok {
		return ending{outcome: "rejected", status: http.StatusServiceUnavailable,
			refusal:    fmt.Sprintf("live: circuit breaker open for %q", name),
			retryAfter: retryAfter, event: "breaker-rejected", detail: "circuit open"}
	}

	// The request queues and runs under the client's context ended at
	// its deadline on the gateway's clock: the deadline wakes a queued
	// request, and a disconnect or an expired deadline cancels in-flight
	// backend work instead of letting it run to waste.
	ctx := req.r.Context()
	if !req.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = g.clock.WithDeadline(ctx, req.deadline)
		defer cancel()
	}
	if e := g.admit(ctx, req); e.outcome != "" {
		return e
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
	return g.exchange(ctx, req, inst, boot.mode)
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

// call is the socket backend's exchange: the hop round trip and the
// response copy.
func (b *socketBackend) call(ctx context.Context, req *request, inst *instance, mode bootMode) ending {
	g, s, w, r, rt := b.g, req.s, req.w, req.r, &req.rt
	// Forward to the watchdog over the instance's own connection,
	// carrying the trace context so the watchdog returns its span
	// timestamps. A failed hop makes the instance suspect: tear it down
	// rather than re-pool it — unless the failure was the client's own
	// doing (an oversized body tripping the front door's limit, a
	// disconnect, an expired deadline), which must not feed the breaker.
	resp, err := inst.hop.RoundTrip(ctx, watchdogHead(rt.tc.Traceparent()), r.Body, r.ContentLength)
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
	// resp is the hop's own and valid only until the exchange ends: what
	// outlives the release below is read out of it first.
	rt.served = true
	status := resp.StatusCode
	g.trace.noteWatchdog(resp.Header, rt)

	// Relay the reply: its body moves in the kernel when both ends are
	// the hop's sockets and it is larger than the reader's buffer, else
	// through a pooled chunk. The front door reads full duplex, so a
	// streaming function's reply flows while its request body is still
	// being forwarded. The watchdog's X-Hotc-Span-* timestamps are
	// consumed above, not forwarded; the gateway's stamps, set first, win.
	stampBoot(w.Header(), rt.reused, mode)
	n, copyErr := hop.Relay(w, resp, internalRespHeader)
	if copyErr != nil && (hop.ReadFailed(copyErr) || ctx.Err() != nil) {
		// The backend read died mid-stream, or the request's context did
		// (client disconnect / deadline) and poisoned it. The instance is
		// suspect and its connection poisoned — close without draining
		// and tear it down. When the context died, the watchdog is
		// blameless: same teardown, no breaker.
		inst.hop.Abort()
		g.release(s, inst, false)
		return g.failed(ctx, req, ending{outcome: "error", status: http.StatusBadGateway,
			refusal: "live: backend read failed mid-stream", errMsg: "backend read failed mid-stream",
			blame: "proxy.failures"}, status)
	}
	// The round trip worked (a handler-level error status is the
	// function's business, not a runtime fault), or only the client's
	// side failed, which the watchdog cannot be blamed for. Drain
	// whatever the client did not take so the instance keeps its
	// connection, then re-pool it. A chunked (streaming) reply carries
	// moments (4) and (5) as trailers, readable only now that the body
	// is fully drained. An instance whose connection could not be kept
	// (too much left to drain, Connection: close, a body the watchdog
	// answered without reading, a relay cut midway) re-dials before it
	// goes back: a pooled instance always holds a usable connection.
	drainClose(resp.Body)
	g.trace.noteWatchdog(resp.Trailer, rt)
	g.release(s, inst, inst.hop.Finish() || g.redial(inst))
	if copyErr != nil {
		return g.abandoned(req, true) // the client left mid-relay
	}
	return g.answered(req, status, n)
}

// call is the in-process backend's exchange: run, on this goroutine
// against the client's own w and r, under the recover a socket
// watchdog's server gives it — no hop exchange, no relay, no second
// goroutine, no socket. Each way out ends as the socket row it stands
// for: a panic, or a stream that failed after its first byte, as a
// reply the watchdog cut; the front door's body limit as a body that ran
// over mid-proxy; a client that stopped taking the reply as one gone
// mid-relay. A function that ignores its context is answered when it
// returns, not at the deadline.
func (b *inlineBackend) call(ctx context.Context, req *request, inst *instance, mode bootMode) ending {
	g, s, w, rt := b.g, req.s, req.w, &req.rt
	stampBoot(w.Header(), rt.reused, mode)
	status, err := func() (status int, err error) {
		defer func() {
			if v := recover(); v != nil {
				if v != http.ErrAbortHandler {
					b.panicked()
				}
				status, err = http.StatusOK, errPanicked
			}
		}()
		return g.run(ctx, w, req.r, inst.fn, &rt.m)
	}()
	n, lost := hop.Sent(w)
	rt.served = err == nil || n > 0
	var e ending
	switch {
	case err != nil && ctx.Err() != nil:
	case bodyLimit(err):
		e = bodyTooLarge()
	case err == nil, lost && err != errPanicked:
		g.release(s, inst, true)
		if lost {
			return g.abandoned(req, true) // the client left mid-reply
		}
		return g.answered(req, status, n)
	default:
		e = ending{outcome: "error", status: http.StatusBadGateway,
			refusal: err.Error(), errMsg: err.Error(), blame: "proxy.failures"}
	}
	g.release(s, inst, false)
	return g.failed(ctx, req, e, status)
}

// failed ends a request whose exchange failed once the function had
// begun its reply, on either backend: e (or, when ctx ended, abandoned's
// ending) if no status line went out yet — what the function wrote is
// taken back, and so are the boot stamps, as a refusal carries none —
// else status, the one committed, with the connection cut.
func (g *Gateway) failed(ctx context.Context, req *request, e ending, status int) ending {
	sent := !hop.Retract(req.w)
	if !sent {
		h := req.w.Header()
		delete(h, "X-Hotc-Reused")
		delete(h, BootHeader)
	}
	if ctx.Err() != nil {
		e = g.abandoned(req, sent)
	} else if sent {
		e.status, e.refusal = status, ""
	}
	e.cut = sent
	return e
}

// stampBoot sets the reply's X-Hotc-Reused and, on a cold start, which
// cold path served it; warm replies skip the extra header (zero-alloc
// hot path).
func stampBoot(h http.Header, reused bool, mode bootMode) {
	h.Set("X-Hotc-Reused", strconv.FormatBool(reused))
	if !reused {
		h.Set(BootHeader, mode.String())
	}
}

// answered ends a request whose function answered with status and n
// body bytes, on either backend.
func (g *Gateway) answered(req *request, status int, n int64) ending {
	if req.rt.reused {
		g.obs.StartsWarm.Inc()
	} else {
		g.obs.StartsCold.Inc()
	}
	g.obs.bodyBytes.Observe(float64(n))
	if status >= 400 {
		return ending{outcome: "error", status: status, healthy: true}
	}
	// Per-tenant goodput: completed useful work, the number the
	// saturation curves are drawn from. It bills the tenant the queue
	// resolved (a bounded set); with admission off, the function.
	tenant := req.s.name
	if req.ticket != nil {
		tenant = req.ticket.Tenant()
	}
	g.obs.admGoodput.With(tenant).Inc()
	return ending{outcome: "ok", status: status, healthy: true}
}

// conclude is the one way out of handle: it turns an ending into every
// effect the gateway owes for the request, each exactly once — the
// breaker's verdict, the refusal (when no status line went out yet), the
// span event, then, at one reading of the clock, the outcome and
// latency, the SLO record and the span.
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
	if e.event != "" {
		g.traceEvent(&req.rt, e.event, e.detail)
	}
	end := g.clock.Now()
	req.s.observe(e.outcome, end.Sub(req.rt.start))
	g.finishRequest(req.s, &req.rt, e.status, e.errMsg, end)
	if e.cut {
		panic(http.ErrAbortHandler) // the front door drops the connection
	}
}
