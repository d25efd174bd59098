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
	"hotc/internal/kernel"
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
	// Acquire obtains a runtime for the spec, the deployment's own
	// pointer. reused reports whether an existing live container was
	// handed out; delta carries exec-time adjustments for relaxed
	// matches.
	Acquire(spec *container.Spec, done func(c *container.Container, reused bool, delta config.Delta, err error))
	// Complete is invoked after the response is sent; the provider
	// decides whether to clean and keep the container or stop it.
	Complete(c *container.Container, spec *container.Spec)
	// Discard takes back a suspect container without re-pooling it
	// (quarantine or stop instead of clean-and-keep). The gateway calls
	// it when an execution fails and the runtime can no longer be
	// trusted.
	Discard(c *container.Container, spec *container.Spec)
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

	// deployments holds one record per deployed function name, and keys
	// one per runtime key those functions run on, under the engine's key
	// handle (container.KeyID).
	deployments map[string]*deployment
	keys        []*runtimeKey

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

	// spare holds finished requests for the next ones to reuse.
	spare []*request

	// obs holds the gateway's books, on the registry NewGateway was
	// given; tracer is the optional span hook (see Trace).
	obs    *instruments
	tracer *obs.Tracer
}

// deployment is one deployed function's record: what a request for it
// reads, resolved once. Deploy sets the function and its spec (a
// redeploy replaces both, and an admitted request keeps the function it
// was admitted with); the metric series are resolved at the first
// request, when they appear in the registry. The concurrency slots and
// the queue behind them belong to the name and survive a redeploy.
type deployment struct {
	fn      *Function
	spec    *container.Spec
	key     *runtimeKey
	metrics *fnHandles // nil until the first request starts

	inFlight int
	waiting  []*request
}

// runtimeKey is one runtime key's record, shared by every function
// deployed on the key: its circuit breaker (nil until breaking is armed
// and the key sees traffic) and its breaker-state gauge (nil until first
// set).
type runtimeKey struct {
	key          string
	brk          *kernel.Breaker
	breakerState *obs.Gauge
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
		deployments:       make(map[string]*deployment),
		MaxAcquireRetries: 1,
		Backoff:           DefaultBackoff(),
		obs:               newInstruments(reg),
	}
}

// breakerFor lazily builds the breaker guarding a runtime key; nil when
// breaking is disabled.
func (g *Gateway) breakerFor(k *runtimeKey) *kernel.Breaker {
	if g.BreakerThreshold <= 0 {
		return nil
	}
	if k.brk == nil {
		k.brk = kernel.NewBreaker(g.BreakerThreshold, g.BreakerOpenFor)
	}
	return k.brk
}

// admit starts the request immediately if its function has a free
// concurrency slot, otherwise enqueues it.
func (g *Gateway) admit(r *request) {
	d := r.d
	if r.fn.MaxConcurrency <= 0 || d.inFlight < r.fn.MaxConcurrency {
		d.inFlight++
		r.start()
		return
	}
	d.waiting = append(d.waiting, r)
}

// releaseSlot frees a concurrency slot and starts the next queued
// request, if any.
func (g *Gateway) releaseSlot(d *deployment) {
	d.inFlight--
	if q := d.waiting; len(q) > 0 {
		next := q[0]
		d.waiting = q[1:]
		d.inFlight++
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
	id := g.eng.KeyOf(spec)
	for int(id) >= len(g.keys) {
		g.keys = append(g.keys, nil)
	}
	k := g.keys[id]
	if k == nil {
		k = &runtimeKey{key: string(spec.Key())}
		g.keys[id] = k
	}
	d := g.deployments[fn.Name]
	if d == nil {
		d = &deployment{}
		g.deployments[fn.Name] = d
	}
	d.fn, d.spec, d.key = &fn, spec, k
	return nil
}

// SpecResolver resolves runtime configurations to specs; the image
// registry satisfies it through ResolverFunc.
type SpecResolver interface {
	Resolve(rt config.Runtime) (*container.Spec, error)
}

// ResolverFunc adapts a function to SpecResolver.
type ResolverFunc func(rt config.Runtime) (*container.Spec, error)

// Resolve implements SpecResolver.
func (f ResolverFunc) Resolve(rt config.Runtime) (*container.Spec, error) { return f(rt) }

// Functions returns the deployed function names, sorted.
func (g *Gateway) Functions() []string {
	names := make([]string, 0, len(g.deployments))
	for n := range g.deployments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spec returns the resolved spec of a deployed function: the pointer
// its requests hand the provider.
func (g *Gateway) Spec(name string) (*container.Spec, bool) {
	if d := g.deployments[name]; d != nil {
		return d.spec, true
	}
	return nil, false
}

// Handle processes one request for the named function, invoking done
// with the full timestamp record when the response reaches the client.
// It must be called on the scheduler goroutine at the request's
// arrival time.
func (g *Gateway) Handle(name string, req trace.Request, done func(Result)) {
	if done == nil {
		panic("faas: Handle requires a completion callback")
	}
	g.handle(target{name: name, d: g.deployments[name]}, req, 0, func(_ int, r *Result) { done(*r) })
}

// target is what a request names: a function, and its deployment (nil
// while the name is not deployed).
type target struct {
	name string
	d    *deployment
}

// handle is Handle for a resolved target: done is called with slot
// and the result, so one callback can serve a whole replay. The result
// is valid only until done returns.
func (g *Gateway) handle(t target, req trace.Request, slot int, done func(int, *Result)) {
	if t.d == nil {
		// Booked as the live gateway books it: function="" is
		// undeployable, one series for every unknown name.
		g.obs.Requests.With("", "error").Inc()
		g.obs.Latency.With("").Observe(0)
		done(slot, &Result{Request: req, Function: t.name, Err: fmt.Errorf("faas: unknown function %q", t.name)})
		return
	}
	r := g.newRequest()
	r.d, r.fn, r.slot, r.done = t.d, t.d.fn, slot, done
	r.res.Request = req
	r.res.Timestamps.GatewayIn = g.sched.Now() // queue time counts into the latency
	g.admit(r)
}

// request is one request's trip through the pipeline: everything the
// steps below share. Exactly one step is pending at any moment — an
// event on the scheduler or a callback held by the provider or the
// engine — so the fields describing the current attempt need no more
// than one copy.
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
	d    *deployment
	fn   *Function // as admitted
	slot int
	done func(int, *Result)

	// Read from the deployment at start.
	spec *container.Spec
	key  *runtimeKey
	brk  *kernel.Breaker // nil when breaking is disabled

	// res is the result as it is built: the trace entry, the six
	// timestamps as they are stamped and the resilience events as they
	// happen; finish fills in the rest and hands it to done.
	res Result
	// admitAt is when the request cleared the concurrency queue; the
	// gap back to res.Timestamps.GatewayIn is pure queue wait.
	admitAt simclock.Time

	// attempt counts acquire retries since the last (re)start of the
	// acquire loop, execAttempt the exec fallbacks so far.
	attempt, execAttempt int

	// The runtime the current attempt runs on. owned marks a
	// degraded-path container the gateway created itself: it never
	// touches the provider and is stopped after the response.
	c      *container.Container
	reused bool
	owned  bool

	// then is the step the pending scheduler event runs.
	then func(*request)
	// on holds the callbacks handed to the scheduler, the provider and
	// the engine. They are bound to the struct when it is first made
	// and kept when a finished request is reused (Gateway.spare), so a
	// request allocates nothing once the gateway has as many structs as
	// it has requests in flight.
	on callbacks
}

type callbacks struct {
	step     func()
	acquired func(*container.Container, bool, config.Delta, error)
	created  func(*container.Container, error)
	execDone func(time.Duration, error)
}

// newRequest returns a spare request, or a new one with its callbacks
// bound.
func (g *Gateway) newRequest() *request {
	if n := len(g.spare); n > 0 {
		r := g.spare[n-1]
		g.spare = g.spare[:n-1]
		return r
	}
	r := &request{g: g}
	r.on = callbacks{step: func() { r.then(r) }, acquired: r.acquired, created: r.created, execDone: r.execDone}
	return r
}

// after runs then d from now.
func (r *request) after(d time.Duration, then func(*request)) {
	r.then = then
	r.g.sched.After(d, r.on.step)
}

// start drives an admitted request into the pipeline.
func (r *request) start() {
	g, d := r.g, r.d
	r.spec, r.key = d.spec, d.key
	r.brk = g.breakerFor(r.key)
	r.admitAt = g.sched.Now()
	g.fnMetrics(d).queueWait.ObserveDuration(r.admitAt - r.res.Timestamps.GatewayIn)
	// (1) -> gateway proxies the request towards the backend. The
	// provider hands over a runtime; for a cold start the boot happens
	// inside Acquire, i.e. between (1) and (2) the request is waiting
	// for the backend to scale from zero.
	r.after(g.eng.Model().GatewayForwardCost(), (*request).acquire)
}

// annotate books one resilience event: on the request's Faults and,
// once, in hotc_resilience_events_total. kind is a row of
// resilienceKinds.
func (r *request) annotate(kind, detail string) {
	r.res.Faults = append(r.res.Faults, trace.FaultEvent{At: r.g.sched.Now(), Kind: kind, Detail: detail})
	r.g.obs.events[kind].Inc()
}

// finish records the outcome, frees the concurrency slot and hands the
// result to the caller. The struct is spare once the caller returns.
func (r *request) finish(reused bool, err error) {
	g := r.g
	r.res.Timestamps.ClientOut = g.sched.Now()
	g.record(r, reused, err)
	g.releaseSlot(r.d)
	r.res.Function, r.res.Reused, r.res.Err = r.fn.Name, reused, err
	r.done(r.slot, &r.res)
	on := r.on
	*r = request{}
	r.g, r.on = g, on
	g.spare = append(g.spare, r)
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
		r.annotate("degraded-cold", r.key.key)
		g.eng.Create(r.spec, r.on.created)
		return
	}
	g.provider.Acquire(r.spec, r.on.acquired)
}

// created continues a degraded cold start.
func (r *request) created(c *container.Container, err error) {
	if err != nil {
		r.retryOrFail(err)
		return
	}
	r.run(c, false, false, true)
}

// acquired continues with the provider's answer.
func (r *request) acquired(c *container.Container, reused bool, delta config.Delta, err error) {
	g := r.g
	if err != nil {
		if r.brk != nil && r.brk.OnFailure(g.sched.Now()) {
			r.annotate("breaker-open", r.key.key)
		}
		g.setBreakerGauge(r.key, r.brk)
		r.retryOrFail(err)
		return
	}
	if r.brk != nil {
		if was := r.brk.State(g.sched.Now()); was != kernel.BreakerClosed {
			r.annotate("breaker-close", r.key.key)
		}
		r.brk.OnSuccess()
		g.setBreakerGauge(r.key, r.brk)
	}
	r.run(c, reused, !delta.Empty(), false)
}

// retryOrFail reschedules the acquire loop after a failure, or surfaces
// the error once the retry budget is spent.
func (r *request) retryOrFail(err error) {
	g := r.g
	if r.attempt < g.MaxAcquireRetries {
		r.annotate("acquire-retry", err.Error())
		delay := g.Backoff.Delay(r.attempt)
		r.attempt++
		r.after(delay, (*request).acquire)
		return
	}
	r.fail(err)
}

// run drives (2)->(6) on an acquired runtime; relaxed reports a
// relaxed match, which applies its exec-time delta first.
func (r *request) run(c *container.Container, reused, relaxed, owned bool) {
	r.c, r.reused, r.owned = c, reused, owned
	adjust := time.Duration(0)
	if relaxed {
		adjust = r.g.eng.Model().DeltaApplyCost()
	}
	r.after(adjust, (*request).exec)
}

func (r *request) exec() {
	g := r.g
	if ts := &r.res.Timestamps; ts.WatchdogIn == 0 {
		// Stamped once: an exec fallback re-enters here, and the
		// recovery time belongs to this request's initiation.
		ts.WatchdogIn = g.sched.Now()
	}
	g.eng.Exec(r.c, r.fn.App, r.on.execDone)
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
			r.after(delay, (*request).acquire)
			return
		}
		r.giveBack()
		r.fail(err)
		return
	}
	// Apportion the (possibly jittered) actual duration over the
	// nominal phases to place (3) and (4).
	ts := &r.res.Timestamps
	ts.FuncStop = g.sched.Now()
	initPhase, execPhase := r.c.Phases()
	nominal := initPhase + execPhase
	execShare := execPhase
	if nominal > 0 {
		execShare = time.Duration(float64(actual) * float64(execPhase) / float64(nominal))
	}
	ts.FuncStart = ts.FuncStop - execShare
	// (4) -> (5): watchdog copies the response out.
	r.after(g.eng.Model().WatchdogShimCost(), (*request).watchdogOut)
}

func (r *request) watchdogOut() {
	r.res.Timestamps.WatchdogOut = r.g.sched.Now()
	// (5) -> (6): gateway returns to the client.
	r.after(r.g.eng.Model().GatewayForwardCost(), (*request).respond)
}

func (r *request) respond() {
	r.giveBack()
	r.finish(r.reused, nil)
}

// Replay feeds a request schedule to arrive and steps the scheduler
// until every request has finished: arrive(i, req) starts schedule[i],
// and each request decrements *pending once when it finishes. Arrivals
// are one stream on the scheduler (simclock.AtEach), each firing at the
// current instant plus its At, so the event queue holds the work in
// flight rather than the whole trace; requests sharing an instant
// arrive in schedule order. A schedule that is not sorted by arrival
// time is walked through a stable index sort, which is the order
// scheduling every arrival as an event of its own fires them in.
// Stepping (rather than draining the queue) lets periodic provider
// machinery — control loops, warm-up pingers — keep running without
// deadlocking the replay.
func Replay(sched *simclock.Scheduler, schedule []trace.Request, pending *int, arrive func(i int, req trace.Request)) error {
	order := arrivalOrder(schedule)
	base := sched.Now()
	whens := make([]simclock.Time, len(schedule))
	for k := range whens {
		whens[k] = base + schedule[order.at(k)].At
	}
	sched.AtEach(whens, func(k int) {
		i := order.at(k)
		arrive(i, schedule[i])
	})
	for *pending > 0 {
		if !sched.Step() {
			return fmt.Errorf("faas: scheduler drained with %d requests outstanding", *pending)
		}
	}
	return nil
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
// are mapped to function names by classFn (see RunAs) and the
// simulation is stepped until every response has been delivered (see
// Replay). Results are returned in schedule order.
func Run(g *Gateway, schedule []trace.Request, classFn func(class int) string) ([]Result, error) {
	return RunAs(g, schedule, classFn, func(r *Result) Result { return *r })
}

// RunAs is Run for a caller that keeps its own record of a request: as
// maps each result into it when the request finishes (the result is
// valid only until as returns). classFn must be a pure mapping: it is
// consulted once per distinct class, and the name it gives is resolved
// to a deployment once.
func RunAs[R any](g *Gateway, schedule []trace.Request, classFn func(class int) string, as func(*Result) R) ([]R, error) {
	out := make([]R, len(schedule))
	pending := len(schedule)
	put := func(i int, r *Result) {
		out[i] = as(r)
		pending--
	}
	targets := make(map[int]*target)
	err := Replay(g.sched, schedule, &pending, func(i int, req trace.Request) {
		t := targets[req.Class]
		if t == nil {
			t = &target{name: classFn(req.Class)}
			targets[req.Class] = t
		}
		if t.d == nil {
			t.d = g.deployments[t.name] // until deployed, looked up at every request
		}
		g.handle(*t, req, i, put)
	})
	if err == nil {
		err = g.settle()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
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
