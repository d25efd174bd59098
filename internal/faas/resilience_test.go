package faas

import (
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/kernel"
	"hotc/internal/rng"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

func TestBackoffDelaySchedule(t *testing.T) {
	cases := []struct {
		name    string
		b       Backoff
		attempt int
		want    time.Duration
	}{
		{"default first", DefaultBackoff(), 0, 100 * time.Millisecond},
		{"default second", DefaultBackoff(), 1, 200 * time.Millisecond},
		{"default third", DefaultBackoff(), 2, 400 * time.Millisecond},
		{"default capped", DefaultBackoff(), 10, 5 * time.Second},
		{"negative attempt clamps", DefaultBackoff(), -3, 100 * time.Millisecond},
		{"factor 3", Backoff{Base: time.Second, Factor: 3}, 2, 9 * time.Second},
		{"factor <= 1 defaults to 2", Backoff{Base: time.Second, Factor: 0.5}, 1, 2 * time.Second},
		{"uncapped", Backoff{Base: time.Millisecond, Factor: 2}, 20, 1 << 20 * time.Millisecond},
		{"cap below base", Backoff{Base: time.Second, Factor: 2, Max: 500 * time.Millisecond}, 0, 500 * time.Millisecond},
	}
	for _, c := range cases {
		if got := c.b.Delay(c.attempt); got != c.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", c.name, c.attempt, got, c.want)
		}
	}
}

func TestBackoffJitterSeededAndBounded(t *testing.T) {
	mk := func() Backoff {
		return Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: 5 * time.Second,
			JitterFrac: 0.2, Rng: rng.New(42).Split("jitter")}
	}
	a, b := mk(), mk()
	sawDifferent := false
	for attempt := 0; attempt < 8; attempt++ {
		nominal := Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: 5 * time.Second}.Delay(attempt)
		da, db := a.Delay(attempt), b.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v and %v", attempt, da, db)
		}
		lo := time.Duration(0.8 * float64(nominal))
		hi := time.Duration(1.2 * float64(nominal))
		if da < lo || da > hi {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, da, lo, hi)
		}
		if da != nominal {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Fatal("jitter never moved a delay off its nominal value")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := kernel.NewBreaker(3, 10*time.Second)
	now := func(d time.Duration) time.Duration { return d }

	// Closed: failures below the threshold keep it closed.
	if !b.Allow(now(0)) {
		t.Fatal("fresh breaker should allow")
	}
	if b.OnFailure(now(1 * time.Second)) {
		t.Fatal("first failure tripped the breaker")
	}
	if b.OnFailure(now(2 * time.Second)) {
		t.Fatal("second failure tripped the breaker")
	}
	if b.State(now(2*time.Second)) != kernel.BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State(now(2*time.Second)))
	}

	// Third consecutive failure trips it open.
	if !b.OnFailure(now(3 * time.Second)) {
		t.Fatal("threshold failure did not trip the breaker")
	}
	if b.State(now(3*time.Second)) != kernel.BreakerOpen {
		t.Fatalf("state = %v, want open", b.State(now(3*time.Second)))
	}
	if b.Allow(now(5 * time.Second)) {
		t.Fatal("open breaker allowed inside the window")
	}
	// A failure observed while open neither counts nor re-trips.
	if b.OnFailure(now(6 * time.Second)) {
		t.Fatal("failure while open reported a trip")
	}

	// Window elapsed: half-open, exactly one probe admitted.
	if b.State(now(13*time.Second)) != kernel.BreakerHalfOpen {
		t.Fatalf("state after window = %v, want half-open", b.State(now(13*time.Second)))
	}
	if !b.Allow(now(13 * time.Second)) {
		t.Fatal("probe rejected after the open window")
	}
	if b.Allow(now(13 * time.Second)) {
		t.Fatal("second probe admitted while the first is in flight")
	}

	// Successful probe closes the breaker.
	b.OnSuccess()
	if b.State(now(14*time.Second)) != kernel.BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", b.State(now(14*time.Second)))
	}
	if !b.Allow(now(14 * time.Second)) {
		t.Fatal("closed breaker should allow")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b := kernel.NewBreaker(1, 10*time.Second)
	if !b.OnFailure(0) {
		t.Fatal("threshold 1 should trip on the first failure")
	}
	if !b.Allow(11 * time.Second) {
		t.Fatal("probe rejected")
	}
	if !b.OnFailure(11 * time.Second) {
		t.Fatal("failed probe should re-trip the breaker")
	}
	if b.State(12*time.Second) != kernel.BreakerOpen {
		t.Fatalf("state = %v, want open", b.State(12*time.Second))
	}
	// The re-opened window is anchored at the probe failure.
	if b.Allow(20 * time.Second) {
		t.Fatal("window should have restarted at the probe failure")
	}
	if !b.Allow(22 * time.Second) {
		t.Fatal("second probe rejected after the restarted window")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := kernel.NewBreaker(3, time.Second)
	b.OnFailure(0)
	b.OnFailure(0)
	b.OnSuccess()
	// The streak restarts: two more failures must not trip.
	if b.OnFailure(0) || b.OnFailure(0) {
		t.Fatal("breaker tripped on a broken streak")
	}
	if b.State(0) != kernel.BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State(0))
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := kernel.NewBreaker(0, 0)
	if b.Threshold != 5 || b.OpenFor != 30*time.Second {
		t.Fatalf("defaults = %d/%v, want 5/30s", b.Threshold, b.OpenFor)
	}
}

// Satellite: the acquire error contract. A request whose acquisition
// fails permanently must complete exactly once, with Err set, the
// client-out timestamp stamped, and its concurrency slot released.
func TestAcquireErrorContract(t *testing.T) {
	f := newFixture(t, coldProvider)
	fn := Function{
		Name:           "limited",
		Runtime:        config.Runtime{Image: "python:3.8"},
		App:            workload.QRApp(workload.Python),
		MaxConcurrency: 1,
	}
	resolver := ResolverFunc(func(rt config.Runtime) (*container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(fn, resolver); err != nil {
		t.Fatal(err)
	}
	f.gw.MaxAcquireRetries = 1
	// Creates fail until the fault "clears" mid-run: the first request
	// exhausts its retries, the second succeeds — proving the failed
	// request released its single concurrency slot.
	calls := 0
	f.eng.CreateHook = func(*container.Spec) error {
		calls++
		if calls <= 2 {
			return errBoom
		}
		return nil
	}
	completions := 0
	var first Result
	f.gw.Handle("limited", trace.Request{At: 0}, func(r Result) { completions++; first = r })
	var second Result
	f.gw.Handle("limited", trace.Request{At: 0}, func(r Result) { second = r })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if completions != 1 {
		t.Fatalf("first request completed %d times, want exactly once", completions)
	}
	if first.Err == nil {
		t.Fatal("first request should carry the acquire error")
	}
	if first.Timestamps.ClientOut == 0 {
		t.Fatal("failed request must stamp ClientOut (the client saw the error at a definite time)")
	}
	if len(first.Faults) == 0 || first.Faults[0].Kind != "acquire-retry" {
		t.Fatalf("faults = %+v, want an acquire-retry annotation", first.Faults)
	}
	if second.Err != nil {
		t.Fatalf("second request blocked or failed after the first errored: %v", second.Err)
	}
	if got := f.gw.ResilienceCounters()[CounterRequestsFailed]; got != 1 {
		t.Fatalf("%s = %d, want 1", CounterRequestsFailed, got)
	}
}

func TestExecFallbackRecoversOnFreshContainer(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	f.gw.ExecRetries = 2
	// The first exec crashes; the fallback acquires a fresh container
	// and succeeds.
	calls := 0
	f.eng.ExecHook = func(*container.Container, workload.App) error {
		calls++
		if calls == 1 {
			return errBoom
		}
		return nil
	}
	results, err := Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("request failed despite exec fallback: %v", r.Err)
	}
	kinds := map[string]int{}
	for _, ev := range r.Faults {
		kinds[ev.Kind]++
	}
	if kinds["exec-fallback"] != 1 || kinds["quarantine"] != 1 {
		t.Fatalf("fault annotations = %v, want one exec-fallback and one quarantine", kinds)
	}
	c := f.gw.ResilienceCounters()
	if c[CounterExecFallbacks] != 1 || c[CounterQuarantines] != 1 {
		t.Fatalf("counters = %v", c)
	}
	// Two containers were created: the crashed one (discarded) and its
	// replacement.
	if f.eng.Stats().Created != 2 {
		t.Fatalf("created = %d, want 2", f.eng.Stats().Created)
	}
}

func TestExecRetriesExhausted(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	f.gw.ExecRetries = 1
	f.eng.ExecHook = func(*container.Container, workload.App) error { return errBoom }
	results, err := Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("request succeeded with a permanently crashing exec")
	}
	c := f.gw.ResilienceCounters()
	if c[CounterExecFallbacks] != 1 {
		t.Fatalf("%s = %d, want 1 (one fallback, then give up)", CounterExecFallbacks, c[CounterExecFallbacks])
	}
}

// failingProvider fails every Acquire while broken; once fixed it
// serves fresh containers. It stands in for a provider whose backing
// store (pool, registry) is down while the engine itself still works —
// the situation the breaker's degraded mode exists for.
type failingProvider struct {
	eng    *container.Engine
	broken bool
	calls  int
}

func (p *failingProvider) Name() string { return "failing" }

func (p *failingProvider) Acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	p.calls++
	if p.broken {
		done(nil, false, config.Delta{}, errBoom)
		return
	}
	p.eng.Create(spec, func(c *container.Container, err error) {
		if err != nil {
			done(nil, false, config.Delta{}, err)
			return
		}
		if err := p.eng.Reserve(c); err != nil {
			done(nil, false, config.Delta{}, err)
			return
		}
		done(c, false, config.Delta{}, nil)
	})
}

func (p *failingProvider) Complete(c *container.Container, _ *container.Spec) {
	p.eng.Stop(c, nil)
}

func (p *failingProvider) Discard(c *container.Container, spec *container.Spec) {
	p.Complete(c, spec)
}

func TestBreakerDegradesAndRecovers(t *testing.T) {
	var fp *failingProvider
	f := newFixture(t, func(eng *container.Engine) Provider {
		fp = &failingProvider{eng: eng, broken: true}
		return fp
	})
	f.deployQR(t, "qr", workload.Python)
	f.gw.MaxAcquireRetries = 0
	f.gw.BreakerThreshold = 2
	f.gw.BreakerOpenFor = 30 * time.Second

	run := func(at time.Duration) Result {
		var res Result
		f.gw.Handle("qr", trace.Request{At: at}, func(r Result) { res = r })
		if err := f.sched.Run(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Two failures trip the breaker; both requests error (no retries).
	if r := run(0); r.Err == nil {
		t.Fatal("request 1 should fail")
	}
	if r := run(0); r.Err == nil {
		t.Fatal("request 2 should fail")
	}
	if trips := f.gw.ResilienceCounters()[CounterBreakerTrips]; trips != 1 {
		t.Fatalf("%s = %d, want tripped once", CounterBreakerTrips, trips)
	}

	// Open: requests bypass the broken provider and degrade to direct
	// cold starts — they succeed at cold latency instead of erroring.
	providerCalls := fp.calls
	r := run(0)
	if r.Err != nil {
		t.Fatalf("degraded request failed: %v", r.Err)
	}
	if r.Reused {
		t.Fatal("degraded request cannot reuse")
	}
	if fp.calls != providerCalls {
		t.Fatal("degraded request touched the broken provider")
	}
	if got := f.gw.ResilienceCounters()[CounterDegradedRequests]; got != 1 {
		t.Fatalf("%s = %d, want 1", CounterDegradedRequests, got)
	}
	degraded := false
	for _, ev := range r.Faults {
		if ev.Kind == "degraded-cold" {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("faults = %+v, want a degraded-cold annotation", r.Faults)
	}

	// Provider recovers; after the open window the next request is the
	// half-open probe, succeeds, and closes the breaker.
	fp.broken = false
	f.sched.Sleep(31 * time.Second)
	r = run(f.sched.Now())
	if r.Err != nil {
		t.Fatalf("probe request failed: %v", r.Err)
	}
	spec, _ := f.gw.Spec("qr")
	if st := series(f.gw, "hotc_breaker_state", string(spec.Key())).Value; st != float64(kernel.BreakerClosed) {
		t.Fatalf("hotc_breaker_state = %v after good probe, want closed", st)
	}
	if got := f.gw.ResilienceCounters()[CounterBreakerCloses]; got != 1 {
		t.Fatalf("%s = %d, want 1", CounterBreakerCloses, got)
	}
	// Degraded-path containers are dedicated: nothing may linger.
	if live := f.eng.Live(); live != 0 {
		t.Fatalf("%d containers leaked", live)
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "qr", workload.Python)
	f.eng.CreateHook = func(*container.Spec) error { return errBoom }
	f.gw.MaxAcquireRetries = 0
	for i := 0; i < 10; i++ {
		var res Result
		f.gw.Handle("qr", trace.Request{}, func(r Result) { res = r })
		if err := f.sched.Run(); err != nil {
			t.Fatal(err)
		}
		if res.Err == nil {
			t.Fatalf("request %d succeeded with a failing engine and no breaker", i)
		}
	}
	for _, k := range f.gw.keys {
		if k != nil && k.brk != nil {
			t.Fatal("breaker materialised despite BreakerThreshold=0")
		}
	}
}
