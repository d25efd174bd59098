package faas

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/image"
	"hotc/internal/policy"
	"hotc/internal/pool"
	"hotc/internal/simclock"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

type fixture struct {
	sched *simclock.Scheduler
	eng   *container.Engine
	reg   *image.Registry
	gw    *Gateway
}

func newFixture(t *testing.T, mk func(eng *container.Engine) Provider) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	gw := NewGateway(eng, mk(eng))
	return &fixture{sched: sched, eng: eng, reg: reg, gw: gw}
}

func coldProvider(eng *container.Engine) Provider { return policy.NewNoReuse(eng) }

func keepAliveProvider(eng *container.Engine) Provider {
	return policy.NewFixedKeepAlive(pool.New(eng, pool.Options{}), time.Hour)
}

func (f *fixture) deployQR(t *testing.T, name string, lang workload.Language) Function {
	t.Helper()
	fn := Function{
		Name:    name,
		Runtime: config.Runtime{Image: "python:3.8"},
		App:     workload.QRApp(lang),
	}
	resolver := ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(fn, resolver); err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestDeployValidation(t *testing.T) {
	f := newFixture(t, coldProvider)
	resolver := ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(Function{}, resolver); err == nil {
		t.Fatal("nameless function deployed")
	}
	if err := f.gw.Deploy(Function{Name: "x", Runtime: config.Runtime{Image: "nope:1"},
		App: workload.QRApp(workload.Go)}, resolver); err == nil {
		t.Fatal("unresolvable image deployed")
	}
	if err := f.gw.Deploy(Function{Name: "x", Runtime: config.Runtime{Image: "python:3.8"}},
		resolver); err == nil {
		t.Fatal("invalid app deployed")
	}
}

func TestFunctionsListing(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "zeta", workload.Python)
	f.deployQR(t, "alpha", workload.Python)
	fns := f.gw.Functions()
	if len(fns) != 2 || fns[0] != "alpha" {
		t.Fatalf("Functions = %v", fns)
	}
	if _, ok := f.gw.Spec("alpha"); !ok {
		t.Fatal("spec missing")
	}
	if _, ok := f.gw.Spec("nope"); ok {
		t.Fatal("phantom spec")
	}
}

func TestHandleUnknownFunction(t *testing.T) {
	f := newFixture(t, coldProvider)
	var res Result
	f.gw.Handle("ghost", trace.Request{}, func(r Result) { res = r })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("unknown function served")
	}
}

// §III.A: timestamps are ordered (1) <= (2) <= (3) <= (4) <= (5) <= (6),
// and for a cold request initiation (2->3) dominates the total.
func TestTimestampOrderingAndInitiationDominance(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "qr", workload.Python)
	results, err := Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	ts := r.Timestamps
	ordered := ts.GatewayIn <= ts.WatchdogIn &&
		ts.WatchdogIn <= ts.FuncStart &&
		ts.FuncStart <= ts.FuncStop &&
		ts.FuncStop <= ts.WatchdogOut &&
		ts.WatchdogOut <= ts.ClientOut
	if !ordered {
		t.Fatalf("timestamps out of order: %+v", ts)
	}
	if ts.Initiation() < ts.Execution() {
		t.Fatalf("cold initiation %v should dominate execution %v", ts.Initiation(), ts.Execution())
	}
	if ts.Total() != ts.Initiation()+ts.Execution()+ts.Forwarding() {
		t.Fatal("phase decomposition does not sum to total")
	}
}

func TestColdProviderNeverReuses(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "qr", workload.Python)
	sched := trace.Serial{Interval: 30 * time.Second, Count: 5}.Generate()
	results, err := Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Reused {
			t.Fatalf("request %d reused under cold policy", i)
		}
	}
	// All containers torn down afterwards.
	if live := f.eng.Live(); live != 0 {
		t.Fatalf("%d containers leaked", live)
	}
}

func TestKeepAliveReusesAfterFirst(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	sched := trace.Serial{Interval: 30 * time.Second, Count: 5}.Generate()
	results, err := Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reused {
		t.Fatal("first request cannot reuse")
	}
	for i, r := range results[1:] {
		if !r.Reused {
			t.Fatalf("request %d did not reuse", i+1)
		}
	}
	// Warm latency is dramatically below cold latency (Fig. 12a).
	cold := results[0].Timestamps.Total()
	warm := results[4].Timestamps.Total()
	if float64(warm) > 0.5*float64(cold) {
		t.Fatalf("warm %v should be far below cold %v", warm, cold)
	}
}

func TestRunPreservesArrivalOrder(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	sched := trace.Parallel{Threads: 4, Interval: time.Second, Rounds: 3}.Generate()
	results, err := Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sched) {
		t.Fatalf("results = %d, want %d", len(results), len(sched))
	}
	for i, r := range results {
		if r.Request != sched[i] {
			t.Fatalf("result %d out of order", i)
		}
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
}

// A schedule need not be sorted: Run walks it in arrival order, ties in
// schedule order, and files each result under its request's index — so
// a shuffled schedule gives, request for request, what its stable sort
// by arrival time gives.
func TestRunShuffledScheduleMatchesSorted(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	shuffled := make([]trace.Request, 120)
	for i := range shuffled {
		// A coarse grid, so that many requests share an instant.
		shuffled[i] = trace.Request{At: time.Duration(rnd.Intn(40)) * 500 * time.Millisecond, Round: i, Class: rnd.Intn(2)}
	}
	if sort.SliceIsSorted(shuffled, func(i, j int) bool { return shuffled[i].At < shuffled[j].At }) {
		t.Fatal("the schedule is already sorted: the test exercises nothing")
	}
	sorted := append([]trace.Request(nil), shuffled...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	run := func(schedule []trace.Request) map[int]Result {
		f := newFixture(t, keepAliveProvider)
		f.deployQR(t, "qr0", workload.Python)
		f.deployQR(t, "qr1", workload.Python)
		results, err := Run(f.gw, schedule, func(class int) string { return fmt.Sprint("qr", class) })
		if err != nil {
			t.Fatal(err)
		}
		byRound := make(map[int]Result, len(results))
		for i, r := range results {
			if r.Request != schedule[i] {
				t.Fatalf("result %d belongs to request %+v, not %+v", i, r.Request, schedule[i])
			}
			byRound[r.Request.Round] = r
		}
		return byRound
	}
	got, want := run(shuffled), run(sorted)
	reused := 0
	for round, w := range want {
		g := got[round]
		if g.Timestamps != w.Timestamps || g.Reused != w.Reused || g.Function != w.Function || g.Err != nil || w.Err != nil {
			t.Fatalf("request %d: shuffled schedule gave %+v, sorted gave %+v", round, g, w)
		}
		if w.Reused {
			reused++
		}
	}
	if reused == 0 || reused == len(want) {
		t.Fatalf("%d of %d requests reused a runtime: the replay cannot tell orders apart", reused, len(want))
	}
}

func TestParallelSameInstantRequestsGetDistinctContainers(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	// Ten simultaneous arrivals: no reuse possible on the first round.
	sched := trace.Parallel{Threads: 10, Interval: time.Second, Rounds: 1}.Generate()
	results, err := Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Reused {
			t.Fatalf("first-round request %d reused", i)
		}
	}
	if f.eng.Live() != 10 {
		t.Fatalf("live = %d, want 10", f.eng.Live())
	}
}

func TestMaxConcurrencySerializes(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	fn := Function{
		Name:           "limited",
		Runtime:        config.Runtime{Image: "python:3.8"},
		App:            workload.QRApp(workload.Python),
		MaxConcurrency: 1,
	}
	resolver := ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(fn, resolver); err != nil {
		t.Fatal(err)
	}
	// Four simultaneous arrivals on a single-slot function.
	sched := []trace.Request{{At: 0}, {At: 0}, {At: 0}, {At: 0}}
	results, err := Run(f.gw, sched, func(int) string { return "limited" })
	if err != nil {
		t.Fatal(err)
	}
	// Executions must not overlap: sort by FuncStart and check each
	// starts after the previous stopped.
	rs := append([]Result(nil), results...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Timestamps.FuncStart < rs[j].Timestamps.FuncStart })
	for i := 1; i < len(rs); i++ {
		if rs[i].Timestamps.FuncStart < rs[i-1].Timestamps.FuncStop {
			t.Fatalf("executions overlap: %v starts before %v stops",
				rs[i].Timestamps.FuncStart, rs[i-1].Timestamps.FuncStop)
		}
	}
	// Later requests queued: their total latency includes the wait.
	if rs[3].Timestamps.Total() <= rs[0].Timestamps.Total() {
		t.Fatal("queued request should observe higher latency")
	}
	if f.gw.QueuedPeak("limited") < 2 {
		t.Fatalf("queued peak = %d, want >= 2", f.gw.QueuedPeak("limited"))
	}
	// With keep-alive reuse and serialization the pool stays tiny: the
	// first request boots one container, and at most one more boots
	// while the first is in post-request volume cleanup when the next
	// queued request is admitted.
	if f.eng.Live() > 2 {
		t.Fatalf("live = %d, want <= 2 (serialized reuse)", f.eng.Live())
	}
	reused := 0
	for _, r := range results {
		if r.Reused {
			reused++
		}
	}
	if reused < 2 {
		t.Fatalf("reused = %d of 4, want >= 2", reused)
	}
}

func TestMaxConcurrencySlotFreedOnError(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	fn := Function{
		Name:           "limited",
		Runtime:        config.Runtime{Image: "python:3.8"},
		App:            workload.QRApp(workload.Python),
		MaxConcurrency: 1,
	}
	resolver := ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(fn, resolver); err != nil {
		t.Fatal(err)
	}
	// First request fails at exec; the slot must free so the second
	// (queued) request still runs.
	calls := 0
	f.eng.ExecHook = func(*container.Container, workload.App) error {
		calls++
		if calls == 1 {
			return errBoom
		}
		return nil
	}
	sched := []trace.Request{{At: 0}, {At: 0}}
	results, err := Run(f.gw, sched, func(int) string { return "limited" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("first request should have failed")
	}
	if results[1].Err != nil {
		t.Fatalf("second request should succeed after slot release: %v", results[1].Err)
	}
}

func TestUnlimitedConcurrencyByDefault(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	sched := []trace.Request{{At: 0}, {At: 0}, {At: 0}}
	results, err := Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	// All three run concurrently in distinct containers.
	if f.eng.Live() != 3 {
		t.Fatalf("live = %d, want 3", f.eng.Live())
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if f.gw.QueuedPeak("qr") != 0 {
		t.Fatal("unlimited function should never queue")
	}
}

var errBoom = errors.New("boom")

func TestAcquireRetryRecoversTransientFailure(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "qr", workload.Python)
	// First create fails (momentary resource exhaustion); the retry
	// succeeds.
	calls := 0
	f.eng.CreateHook = func(container.Spec) error {
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
	if results[0].Err != nil {
		t.Fatalf("request failed despite retry: %v", results[0].Err)
	}
	if f.gw.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", f.gw.Retries())
	}
	// The retry backoff shows up in the latency.
	if results[0].Timestamps.Total() < f.gw.RetryBackoff {
		t.Fatal("retry backoff not reflected in latency")
	}
}

func TestAcquireRetryExhausted(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "qr", workload.Python)
	f.eng.CreateHook = func(container.Spec) error { return errBoom }
	f.gw.MaxAcquireRetries = 2
	results, err := Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("request succeeded with a permanently failing engine")
	}
	if f.gw.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", f.gw.Retries())
	}
}

func TestAcquireRetryDisabled(t *testing.T) {
	f := newFixture(t, coldProvider)
	f.deployQR(t, "qr", workload.Python)
	f.eng.CreateHook = func(container.Spec) error { return errBoom }
	f.gw.MaxAcquireRetries = 0
	results, err := Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || f.gw.Retries() != 0 {
		t.Fatalf("err=%v retries=%d", results[0].Err, f.gw.Retries())
	}
}

func TestHandleRequiresCallback(t *testing.T) {
	f := newFixture(t, coldProvider)
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback accepted")
		}
	}()
	f.gw.Handle("x", trace.Request{}, nil)
}

// Property: under arbitrary schedules, policies and concurrency caps,
// every successful result has monotone timestamps, a consistent phase
// decomposition, and a latency at least the warm floor.
func TestPropertyTimestampInvariants(t *testing.T) {
	prop := func(arrivals []uint16, policyPick, capPick uint8) bool {
		var mk func(eng *container.Engine) Provider
		if policyPick%2 == 0 {
			mk = coldProvider
		} else {
			mk = keepAliveProvider
		}
		f := newFixture(&testing.T{}, mk)
		fn := Function{
			Name:           "qr",
			Runtime:        config.Runtime{Image: "python:3.8"},
			App:            workload.QRApp(workload.Python),
			MaxConcurrency: int(capPick % 4), // 0 = unlimited
		}
		resolver := ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
			return container.ResolveSpec(rt, f.reg)
		})
		if err := f.gw.Deploy(fn, resolver); err != nil {
			return false
		}
		if len(arrivals) > 30 {
			arrivals = arrivals[:30]
		}
		var schedule []trace.Request
		for i, a := range arrivals {
			schedule = append(schedule, trace.Request{
				At:    time.Duration(a%5000) * time.Millisecond,
				Round: i,
			})
		}
		sortRequests(schedule)
		results, err := Run(f.gw, schedule, func(int) string { return "qr" })
		if err != nil {
			return false
		}
		warmFloor := f.eng.Model().ExecCost(fn.App.Exec)
		for _, r := range results {
			if r.Err != nil {
				return false
			}
			ts := r.Timestamps
			ordered := ts.GatewayIn <= ts.WatchdogIn && ts.WatchdogIn <= ts.FuncStart &&
				ts.FuncStart <= ts.FuncStop && ts.FuncStop <= ts.WatchdogOut &&
				ts.WatchdogOut <= ts.ClientOut
			if !ordered {
				return false
			}
			if ts.Total() != ts.Initiation()+ts.Execution()+ts.Forwarding() {
				return false
			}
			if ts.Total() < warmFloor {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sortRequests(reqs []trace.Request) {
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].At < reqs[j].At })
}

func TestTimestampPhasesWarm(t *testing.T) {
	f := newFixture(t, keepAliveProvider)
	f.deployQR(t, "qr", workload.Python)
	sched := trace.Serial{Interval: time.Minute, Count: 2}.Generate()
	results, err := Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	warm := results[1].Timestamps
	// Warm initiation is only the watchdog shim: a tiny slice of total.
	if warm.Initiation() > warm.Execution() {
		t.Fatalf("warm initiation %v should be below execution %v", warm.Initiation(), warm.Execution())
	}
}
