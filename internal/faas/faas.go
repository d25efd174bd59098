// Package faas implements the serverless request pipeline of the
// paper's §III analysis: clients send requests to a gateway, which
// forwards them to a per-function watchdog (the "tiny Golang HTTP
// server" of OpenFaaS) that pipes the request into the function
// process and returns the response. The pipeline records the six
// workflow moments of §III.A:
//
//	(1) request arrives at the gateway
//	(2) request reaches the watchdog
//	(3) function process starts executing
//	(4) function process stops
//	(5) response leaves the watchdog
//	(6) client receives the response
//
// The gap (2)->(3) — function initiation — is where cold start lives
// and is what the paper finds dominating total latency.
//
// How the backend obtains a container runtime is pluggable through the
// Provider interface; the policy package supplies the industry
// baselines and the core package supplies HotC.
package faas

import (
	"fmt"
	"sort"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/obs"
	"hotc/internal/simclock"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// Function is a deployed serverless function: a runtime configuration
// plus the application logic that runs inside it.
type Function struct {
	// Name identifies the function at the gateway.
	Name string
	// Runtime is the container configuration the function executes in.
	Runtime config.Runtime
	// App is the workload model.
	App workload.App
	// MaxConcurrency caps simultaneous executions of this function;
	// excess requests queue FIFO at the gateway (0 = unlimited). This
	// models per-function scale limits of real FaaS platforms.
	MaxConcurrency int
}

// Provider supplies container runtimes to the gateway. Implementations
// decide whether to reuse (HotC, keep-alive baselines) or cold start
// every time (the default behaviour the paper compares against).
type Provider interface {
	// Name identifies the policy in reports.
	Name() string
	// Acquire obtains a runtime for the spec. reused reports whether
	// an existing live container was handed out; delta carries
	// exec-time adjustments for relaxed matches.
	Acquire(spec container.Spec, done func(c *container.Container, reused bool, delta config.Delta, err error))
	// Complete is invoked after the response is sent; the provider
	// decides whether to clean and keep the container or stop it.
	Complete(c *container.Container, spec container.Spec)
	// Discard takes back a suspect container without re-pooling it
	// (quarantine or stop instead of clean-and-keep). The gateway calls
	// it when an execution fails and the runtime can no longer be
	// trusted.
	Discard(c *container.Container, spec container.Spec)
}

// Timestamps are the six measured moments, as virtual times.
type Timestamps struct {
	GatewayIn   simclock.Time // (1)
	WatchdogIn  simclock.Time // (2)
	FuncStart   simclock.Time // (3)
	FuncStop    simclock.Time // (4)
	WatchdogOut simclock.Time // (5)
	ClientOut   simclock.Time // (6)
}

// Total is the end-to-end latency the client observes.
func (ts Timestamps) Total() time.Duration { return ts.ClientOut - ts.GatewayIn }

// Initiation is the (2)->(3) gap: container acquisition plus function
// initialisation — the cold-start component.
func (ts Timestamps) Initiation() time.Duration { return ts.FuncStart - ts.WatchdogIn }

// Execution is the (3)->(4) gap.
func (ts Timestamps) Execution() time.Duration { return ts.FuncStop - ts.FuncStart }

// Forwarding is the network/proxy time: everything outside
// initiation and execution.
func (ts Timestamps) Forwarding() time.Duration {
	return ts.Total() - ts.Initiation() - ts.Execution()
}

// Result is the outcome of one request.
type Result struct {
	// Request is the originating trace entry.
	Request trace.Request
	// Function is the function that served it.
	Function string
	// Timestamps are the six measured moments.
	Timestamps Timestamps
	// Reused reports whether a live container was reused.
	Reused bool
	// Err is non-nil if the request failed.
	Err error
	// Faults annotates resilience events the request went through:
	// acquire retries, exec fallbacks, quarantines, breaker transitions
	// and degraded cold starts. Empty for an untroubled request.
	Faults []trace.FaultEvent
}

// Gateway is the entry point: it resolves functions, obtains runtimes
// from the provider and drives executions on the simulation scheduler.
type Gateway struct {
	sched    *simclock.Scheduler
	eng      *container.Engine
	provider Provider

	functions map[string]Function
	specs     map[string]container.Spec

	inFlight map[string]int
	waiting  map[string][]*request
	// QueuedPeak tracks the maximum queue depth seen per function.
	queuedPeak map[string]int

	// MaxAcquireRetries is how many times a failed runtime acquisition
	// is retried before the request fails (transient engine errors —
	// momentary resource exhaustion, registry hiccups — usually clear
	// within a backoff). Default 1.
	MaxAcquireRetries int
	// Backoff is the delay schedule of acquire retries and exec
	// fallbacks. Default DefaultBackoff().
	Backoff Backoff

	// ExecRetries is how many times a failed execution falls back to a
	// fresh acquisition: the suspect container is discarded (see
	// Provider.Discard) and the acquire loop restarts. Default 0 — an
	// exec failure is returned to the client, the pre-resilience
	// behaviour.
	ExecRetries int

	// BreakerThreshold arms a per-runtime-key circuit breaker: after
	// this many consecutive acquire failures on a key the breaker opens
	// and requests degrade to dedicated cold starts that bypass the
	// provider (they complete at cold-start latency instead of
	// erroring). 0 disables breaking.
	BreakerThreshold int
	// BreakerOpenFor is the open window before a half-open probe is
	// allowed through to the provider again. Default 30s.
	BreakerOpenFor time.Duration

	breakers map[string]*Breaker

	// obs holds the gateway's books, on the registry NewGateway was
	// given; tracer is the optional span hook (see Trace).
	obs    *instruments
	tracer *obs.Tracer
}

// Keys of ResilienceCounters.
const (
	CounterAcquireRetries   = "acquire.retries"
	CounterRequestsFailed   = "requests.failed"
	CounterExecFallbacks    = "exec.fallbacks"
	CounterQuarantines      = "quarantines"
	CounterBreakerTrips     = "breaker.trips"
	CounterBreakerCloses    = "breaker.closes"
	CounterDegradedRequests = "degraded.requests"
)

// BreakerFor returns the circuit breaker guarding the runtime key, or
// nil when breaking is disabled or the key has seen no traffic yet.
func (g *Gateway) BreakerFor(key string) *Breaker { return g.breakers[key] }

// NewGateway builds a gateway over the engine with the given runtime
// provider, counting into reg.
func NewGateway(eng *container.Engine, provider Provider, reg *obs.Registry) *Gateway {
	if eng == nil || provider == nil || reg == nil {
		panic("faas: NewGateway requires engine, provider and registry")
	}
	return &Gateway{
		sched:             eng.Scheduler(),
		eng:               eng,
		provider:          provider,
		functions:         make(map[string]Function),
		specs:             make(map[string]container.Spec),
		inFlight:          make(map[string]int),
		waiting:           make(map[string][]*request),
		queuedPeak:        make(map[string]int),
		breakers:          make(map[string]*Breaker),
		MaxAcquireRetries: 1,
		Backoff:           DefaultBackoff(),
		obs:               newInstruments(reg),
	}
}

// breakerFor lazily builds the breaker guarding a runtime key; nil when
// breaking is disabled.
func (g *Gateway) breakerFor(key string) *Breaker {
	if g.BreakerThreshold <= 0 {
		return nil
	}
	b := g.breakers[key]
	if b == nil {
		b = NewBreaker(g.BreakerThreshold, g.BreakerOpenFor)
		g.breakers[key] = b
	}
	return b
}

// QueuedPeak reports the maximum gateway queue depth observed for a
// concurrency-limited function.
func (g *Gateway) QueuedPeak(name string) int { return g.queuedPeak[name] }

// admit starts the request immediately if its function has a free
// concurrency slot, otherwise enqueues it.
func (g *Gateway) admit(r *request) {
	name := r.fn.Name
	if r.fn.MaxConcurrency <= 0 || g.inFlight[name] < r.fn.MaxConcurrency {
		g.inFlight[name]++
		r.start()
		return
	}
	g.waiting[name] = append(g.waiting[name], r)
	if depth := len(g.waiting[name]); depth > g.queuedPeak[name] {
		g.queuedPeak[name] = depth
	}
}

// releaseSlot frees a concurrency slot and starts the next queued
// request, if any.
func (g *Gateway) releaseSlot(name string) {
	g.inFlight[name]--
	if q := g.waiting[name]; len(q) > 0 {
		next := q[0]
		g.waiting[name] = q[1:]
		g.inFlight[name]++
		next.start()
	}
}

// Provider returns the gateway's runtime provider.
func (g *Gateway) Provider() Provider { return g.provider }

// Deploy registers a function. The runtime must resolve against the
// engine's registry.
func (g *Gateway) Deploy(fn Function, reg SpecResolver) error {
	if fn.Name == "" {
		return fmt.Errorf("faas: function needs a name")
	}
	if err := fn.App.Validate(); err != nil {
		return err
	}
	spec, err := reg.Resolve(fn.Runtime)
	if err != nil {
		return fmt.Errorf("faas: deploying %q: %w", fn.Name, err)
	}
	g.functions[fn.Name] = fn
	g.specs[fn.Name] = spec
	return nil
}

// SpecResolver resolves runtime configurations to specs; the image
// registry satisfies it through ResolverFunc.
type SpecResolver interface {
	Resolve(rt config.Runtime) (container.Spec, error)
}

// ResolverFunc adapts a function to SpecResolver.
type ResolverFunc func(rt config.Runtime) (container.Spec, error)

// Resolve implements SpecResolver.
func (f ResolverFunc) Resolve(rt config.Runtime) (container.Spec, error) { return f(rt) }

// Functions returns the deployed function names, sorted.
func (g *Gateway) Functions() []string {
	names := make([]string, 0, len(g.functions))
	for n := range g.functions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spec returns the resolved spec of a deployed function.
func (g *Gateway) Spec(name string) (container.Spec, bool) {
	s, ok := g.specs[name]
	return s, ok
}

// Handle processes one request for the named function, invoking done
// with the full timestamp record when the response reaches the client.
// It must be called on the scheduler goroutine at the request's
// arrival time.
func (g *Gateway) Handle(name string, req trace.Request, done func(Result)) {
	if done == nil {
		panic("faas: Handle requires a completion callback")
	}
	fn, ok := g.functions[name]
	if !ok {
		done(Result{Request: req, Function: name, Err: fmt.Errorf("faas: unknown function %q", name)})
		return
	}
	r := &request{g: g, fn: fn, req: req, done: done}
	r.ts.GatewayIn = g.sched.Now() // queue time counts into the latency
	g.admit(r)
}

// request is one request's trip through the pipeline: everything the
// steps below share, allocated once in Handle. Exactly one step is
// pending at any moment — an event on the scheduler or a callback held
// by the provider or the engine — so the fields describing the current
// attempt need no more than one copy.
//
// The happy path is start -> acquire -> acquired -> run -> exec ->
// execDone -> watchdogOut -> respond: acquire a runtime from the
// provider, exec, forward the response. Around it sits the
// resilience machinery: acquire failures retry on an exponential
// backoff and feed the per-key circuit breaker; while the breaker is
// open, requests degrade to dedicated cold starts that bypass the
// provider; exec failures discard the suspect container and fall back
// to a fresh acquisition up to ExecRetries times.
type request struct {
	g    *Gateway
	fn   Function
	req  trace.Request
	done func(Result)

	spec container.Spec
	key  string
	brk  *Breaker // nil when breaking is disabled

	ts Timestamps
	// admitAt is when the request cleared the concurrency queue; the
	// gap back to ts.GatewayIn is pure queue wait.
	admitAt simclock.Time
	faults  []trace.FaultEvent

	// attempt counts acquire retries since the last (re)start of the
	// acquire loop, execAttempt the exec fallbacks so far.
	attempt, execAttempt int

	// The runtime the current attempt runs on. owned marks a
	// degraded-path container the gateway created itself: it never
	// touches the provider and is stopped after the response.
	c      *container.Container
	reused bool
	owned  bool
	// Nominal phases of the exec in flight (see execDone).
	initPhase, execPhase time.Duration
}

// start drives an admitted request into the pipeline.
func (r *request) start() {
	g := r.g
	r.spec = g.specs[r.fn.Name]
	r.key = string(r.spec.Key())
	r.brk = g.breakerFor(r.key)
	r.admitAt = g.sched.Now()
	g.obs.forFunction(r.fn.Name).queueWait.ObserveDuration(r.admitAt - r.ts.GatewayIn)
	// (1) -> gateway proxies the request towards the backend. The
	// provider hands over a runtime; for a cold start the boot happens
	// inside Acquire, i.e. between (1) and (2) the request is waiting
	// for the backend to scale from zero.
	g.sched.After(g.eng.Model().GatewayForwardCost(), r.acquire)
}

// annotate books one resilience event: on the request's Faults and,
// once, in hotc_resilience_events_total. kind is a row of
// resilienceKinds.
func (r *request) annotate(kind, detail string) {
	r.faults = append(r.faults, trace.FaultEvent{At: r.g.sched.Now(), Kind: kind, Detail: detail})
	r.g.obs.events[kind].Inc()
}

// finish records the outcome, frees the concurrency slot and hands the
// result to the caller.
func (r *request) finish(reused bool, err error) {
	r.ts.ClientOut = r.g.sched.Now()
	r.g.record(r, reused, err)
	r.g.releaseSlot(r.fn.Name)
	r.done(Result{
		Request:    r.req,
		Function:   r.fn.Name,
		Timestamps: r.ts,
		Reused:     reused,
		Err:        err,
		Faults:     r.faults,
	})
}

// fail is the error contract: a failed request still completes — done
// fires exactly once with Err set and the error timestamp (ClientOut)
// stamped, and the concurrency slot is released. Acquire or exec
// failures must never strand the gateway queue.
func (r *request) fail(err error) {
	r.finish(false, err)
}

// acquire asks for a runtime: from the provider, or — while the key's
// breaker is open — by a dedicated cold start that bypasses the
// provider entirely, so the request completes at cold-start-always
// latency instead of erroring.
func (r *request) acquire() {
	g := r.g
	g.setBreakerGauge(r.key, r.brk)
	if r.brk != nil && !r.brk.Allow(g.sched.Now()) {
		r.annotate("degraded-cold", r.key)
		g.eng.Create(r.spec, r.created)
		return
	}
	g.provider.Acquire(r.spec, r.acquired)
}

// created continues a degraded cold start.
func (r *request) created(c *container.Container, err error) {
	if err != nil {
		r.retryOrFail(err)
		return
	}
	r.run(c, false, config.Delta{}, true)
}

// acquired continues with the provider's answer.
func (r *request) acquired(c *container.Container, reused bool, delta config.Delta, err error) {
	g := r.g
	if err != nil {
		if r.brk != nil && r.brk.OnFailure(g.sched.Now()) {
			r.annotate("breaker-open", r.key)
		}
		g.setBreakerGauge(r.key, r.brk)
		r.retryOrFail(err)
		return
	}
	if r.brk != nil {
		if was := r.brk.State(g.sched.Now()); was != BreakerClosed {
			r.annotate("breaker-close", r.key)
		}
		r.brk.OnSuccess()
		g.setBreakerGauge(r.key, r.brk)
	}
	r.run(c, reused, delta, false)
}

// retryOrFail reschedules the acquire loop after a failure, or surfaces
// the error once the retry budget is spent.
func (r *request) retryOrFail(err error) {
	g := r.g
	if r.attempt < g.MaxAcquireRetries {
		r.annotate("acquire-retry", err.Error())
		delay := g.Backoff.Delay(r.attempt)
		r.attempt++
		g.sched.After(delay, r.acquire)
		return
	}
	r.fail(err)
}

// run drives (2)->(6) on an acquired runtime.
func (r *request) run(c *container.Container, reused bool, delta config.Delta, owned bool) {
	r.c, r.reused, r.owned = c, reused, owned
	// Relaxed matches apply their exec-time delta first.
	adjust := time.Duration(0)
	if !delta.Empty() {
		adjust = r.g.eng.Model().DeltaApplyCost()
	}
	r.g.sched.After(adjust, r.exec)
}

func (r *request) exec() {
	g := r.g
	if r.ts.WatchdogIn == 0 {
		// Stamped once: an exec fallback re-enters here, and the
		// recovery time belongs to this request's initiation.
		r.ts.WatchdogIn = g.sched.Now()
	}
	r.initPhase, r.execPhase = g.eng.ExecPhases(r.c, r.fn.App)
	g.eng.Exec(r.c, r.fn.App, r.execDone)
}

// giveBack returns the runtime after the last use of it by this
// request.
func (r *request) giveBack() {
	if r.owned {
		r.g.eng.Stop(r.c, nil)
	} else {
		r.g.provider.Complete(r.c, r.spec)
	}
}

func (r *request) execDone(actual time.Duration, err error) {
	g := r.g
	if err != nil {
		if r.execAttempt < g.ExecRetries {
			// Graceful degradation: the runtime is suspect, so
			// quarantine it and transparently fall back to a
			// fresh acquisition (typically a cold start).
			r.annotate("exec-fallback", err.Error())
			if r.owned {
				g.eng.Stop(r.c, nil)
			} else {
				r.annotate("quarantine", r.c.ID)
				g.provider.Discard(r.c, r.spec)
			}
			delay := g.Backoff.Delay(r.execAttempt)
			r.attempt, r.execAttempt = 0, r.execAttempt+1
			g.sched.After(delay, r.acquire)
			return
		}
		r.giveBack()
		r.fail(err)
		return
	}
	// Apportion the (possibly jittered) actual duration over the
	// nominal phases to place (3) and (4).
	r.ts.FuncStop = g.sched.Now()
	nominal := r.initPhase + r.execPhase
	execShare := r.execPhase
	if nominal > 0 {
		execShare = time.Duration(float64(actual) * float64(r.execPhase) / float64(nominal))
	}
	r.ts.FuncStart = r.ts.FuncStop - execShare
	// (4) -> (5): watchdog copies the response out.
	g.sched.After(g.eng.Model().WatchdogShimCost(), r.watchdogOut)
}

func (r *request) watchdogOut() {
	r.ts.WatchdogOut = r.g.sched.Now()
	// (5) -> (6): gateway returns to the client.
	r.g.sched.After(r.g.eng.Model().GatewayForwardCost(), r.respond)
}

func (r *request) respond() {
	r.giveBack()
	r.finish(r.reused, nil)
}

// Replay feeds a request schedule to handle and steps the scheduler
// until every request has called done. Arrivals are one stream on the
// scheduler (simclock.AtEach), each firing at the current instant plus
// its At, so the event queue holds the work in flight rather than the
// whole trace; requests sharing an instant arrive in schedule order. A
// schedule that is not sorted by arrival time is walked through a
// stable index sort, which is the order scheduling every arrival as an
// event of its own fires them in. Stepping (rather than draining the
// queue) lets periodic provider machinery — control loops, warm-up
// pingers — keep running without deadlocking the replay. Results are
// returned in schedule order.
func Replay[R any](sched *simclock.Scheduler, schedule []trace.Request, handle func(req trace.Request, done func(R))) ([]R, error) {
	results := make([]R, len(schedule))
	remaining := len(schedule)
	order := arrivalOrder(schedule)
	base := sched.Now()
	whens := make([]simclock.Time, len(schedule))
	for k := range whens {
		whens[k] = base + schedule[order.at(k)].At
	}
	sched.AtEach(whens, func(k int) {
		i := order.at(k)
		handle(schedule[i], func(r R) {
			results[i] = r
			remaining--
		})
	})
	for remaining > 0 {
		if !sched.Step() {
			return nil, fmt.Errorf("faas: scheduler drained with %d requests outstanding", remaining)
		}
	}
	return results, nil
}

// arrivals lists schedule indices by arrival time, ties in schedule
// order; nil stands for a schedule that is already in that order.
type arrivals []int

func arrivalOrder(schedule []trace.Request) arrivals {
	byTime := func(i, j int) bool { return schedule[i].At < schedule[j].At }
	if sort.SliceIsSorted(schedule, byTime) {
		return nil
	}
	order := make(arrivals, len(schedule))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return byTime(order[a], order[b]) })
	return order
}

// at is the schedule index of the k-th arrival.
func (o arrivals) at(k int) int {
	if o == nil {
		return k
	}
	return o[k]
}

// Run replays a request schedule against the gateway: request classes
// are mapped to function names by classFn and the simulation is stepped
// until every response has been delivered (see Replay). Results are
// returned in schedule order.
func Run(g *Gateway, schedule []trace.Request, classFn func(class int) string) ([]Result, error) {
	results, err := Replay(g.sched, schedule, func(req trace.Request, done func(Result)) {
		g.Handle(classFn(req.Class), req, done)
	})
	if err == nil {
		err = g.settle()
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// settle lets post-response housekeeping (container teardown, volume
// cleanup) that the provider scheduled finish before a replay returns,
// so callers observe a quiescent engine.
func (g *Gateway) settle() error {
	return g.sched.RunUntil(g.sched.Now() + settleWindow)
}

// settleWindow bounds the post-replay housekeeping time; it is far
// beyond any teardown cost on any profile.
const settleWindow = 10 * time.Second
