package core

import (
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/image"
	"hotc/internal/obs"
	"hotc/internal/pool"
	"hotc/internal/simclock"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

type fixture struct {
	sched *simclock.Scheduler
	eng   *container.Engine
	reg   *image.Registry
	hotc  *HotC
	gw    *faas.Gateway
}

func newFixture(t *testing.T, opts Options) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	h := New(eng, opts)
	return &fixture{sched: sched, eng: eng, reg: reg, hotc: h, gw: faas.NewGateway(eng, h, obs.New())}
}

func (f *fixture) deploy(t *testing.T, name, img string, app workload.App) *container.Spec {
	t.Helper()
	fn := faas.Function{Name: name, Runtime: config.Runtime{Image: img}, App: app}
	resolver := faas.ResolverFunc(func(rt config.Runtime) (*container.Spec, error) {
		return container.ResolveSpec(rt, f.reg)
	})
	if err := f.gw.Deploy(fn, resolver); err != nil {
		t.Fatal(err)
	}
	spec, _ := f.gw.Spec(name)
	if err := f.hotc.Register(spec, app); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRegisterValidation(t *testing.T) {
	f := newFixture(t, Options{})
	spec, err := container.ResolveSpec(config.Runtime{Image: "python:3.8"}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.hotc.Register(spec, workload.App{}); err == nil {
		t.Fatal("invalid app registered")
	}
	app := workload.QRApp(workload.Python)
	if err := f.hotc.Register(spec, app); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration.
	if err := f.hotc.Register(spec, app); err != nil {
		t.Fatal(err)
	}
}

// Fig. 12(a): serial same-config requests — first cold, rest reused.
func TestSerialReuse(t *testing.T) {
	f := newFixture(t, Options{})
	f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	sched := trace.Serial{Interval: 30 * time.Second, Count: 8}.Generate()
	results, err := faas.Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Reused {
		t.Fatal("first request cannot reuse")
	}
	for i, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i+1, r.Err)
		}
		if !r.Reused {
			t.Fatalf("request %d did not reuse the previous runtime", i+1)
		}
	}
}

// The adaptive controller pre-warms predicted demand so steady traffic
// stops paying cold starts even when requests overlap.
func TestControllerPrewarmsSteadyParallelTraffic(t *testing.T) {
	f := newFixture(t, Options{Interval: 10 * time.Second})
	f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	f.hotc.Start()
	defer f.hotc.Stop()

	// 4 simultaneous same-class requests every 10s: demand per interval
	// is 4, so after a few intervals the pool holds ~4 warm containers.
	var sched []trace.Request
	for round := 0; round < 12; round++ {
		for i := 0; i < 4; i++ {
			sched = append(sched, trace.Request{At: time.Duration(round) * 10 * time.Second, Round: round})
		}
	}
	results, err := faas.Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	// Late rounds must be all-warm.
	lateCold := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Request.Round >= 8 && !r.Reused {
			lateCold++
		}
	}
	if lateCold > 0 {
		t.Fatalf("%d cold starts in late rounds despite steady demand", lateCold)
	}
}

// The controller retires excess containers when demand falls
// (Fig. 13's decreasing case keeps latency low while shrinking the
// pool).
func TestControllerRetiresOnFallingDemand(t *testing.T) {
	f := newFixture(t, Options{Interval: 10 * time.Second})
	spec := f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	f.hotc.Start()
	defer f.hotc.Stop()

	var sched []trace.Request
	at := time.Duration(0)
	for round := 0; round < 6; round++ { // high demand: 8 per round
		for i := 0; i < 8; i++ {
			sched = append(sched, trace.Request{At: at, Round: round})
		}
		at += 10 * time.Second
	}
	results, err := faas.Run(f.gw, sched, func(int) string { return "qr" })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	highWater := f.hotc.Pool().NumLive(spec.Key())
	if highWater < 4 {
		t.Fatalf("expected a grown pool, got %d", highWater)
	}
	// No demand for many intervals: the controller should retire the
	// now-idle containers.
	f.sched.Sleep(2 * time.Minute)
	if live := f.hotc.Pool().NumLive(spec.Key()); live >= highWater {
		t.Fatalf("pool did not shrink: %d -> %d", highWater, live)
	}
}

func TestPredictionTraceRecorded(t *testing.T) {
	f := newFixture(t, Options{Interval: 10 * time.Second})
	spec := f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	f.hotc.Start()
	defer f.hotc.Stop()

	sched := trace.Serial{Interval: 5 * time.Second, Count: 20}.Generate()
	if _, err := faas.Run(f.gw, sched, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	trail, ok := f.hotc.Trail(spec.Key())
	if !ok {
		t.Fatal("no prediction trace for registered key")
	}
	if len(trail) == 0 {
		t.Fatalf("trace length: %d", len(trail))
	}
	if _, ok := f.hotc.Trail(config.Key("ghost")); ok {
		t.Fatal("phantom prediction trace")
	}
}

func TestDistinctConfigsDistinctPools(t *testing.T) {
	f := newFixture(t, Options{})
	specA := f.deploy(t, "py", "python:3.8", workload.QRApp(workload.Python))
	specB := f.deploy(t, "node", "node:10", workload.QRApp(workload.Node))
	if specA.Key() == specB.Key() {
		t.Fatal("distinct images share a key")
	}
	sched := []trace.Request{{At: 0, Class: 0}, {At: time.Minute, Class: 1}, {At: 2 * time.Minute, Class: 0}}
	classFn := func(c int) string {
		if c == 0 {
			return "py"
		}
		return "node"
	}
	results, err := faas.Run(f.gw, sched, classFn)
	if err != nil {
		t.Fatal(err)
	}
	// Third request (class 0) reuses the python container, not node's.
	if !results[2].Reused {
		t.Fatal("same-class revisit should reuse")
	}
	if results[1].Reused {
		t.Fatal("cross-class request must not reuse")
	}
}

func TestStartStopLifecycle(t *testing.T) {
	f := newFixture(t, Options{})
	f.hotc.Start()
	f.hotc.Stop()
	f.hotc.Stop() // idempotent
	f.hotc.Start()
	f.hotc.Stop()
}

func TestDoubleStartPanics(t *testing.T) {
	f := newFixture(t, Options{})
	f.hotc.Start()
	defer f.hotc.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	f.hotc.Start()
}

func TestHotCWithMemoryPressurePool(t *testing.T) {
	pressure := false
	f := newFixture(t, Options{
		Pool: pool.Options{
			MemUsedPct: func() float64 {
				if pressure {
					return 90
				}
				return 20
			},
		},
	})
	f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	sched := trace.Serial{Interval: 10 * time.Second, Count: 3}.Generate()
	if _, err := faas.Run(f.gw, sched, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	pressure = true
	// New runtime type under pressure evicts the idle python container.
	f.deploy(t, "node", "node:10", workload.QRApp(workload.Node))
	if _, err := faas.Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "node" }); err != nil {
		t.Fatal(err)
	}
	if f.hotc.Pool().Stats().Evictions == 0 {
		t.Fatal("memory pressure did not trigger eviction")
	}
}

// ScaleDownFrac bounds how fast the pool shrinks per tick.
func TestScaleDownHysteresis(t *testing.T) {
	run := func(frac float64) []int {
		f := newFixture(t, Options{Interval: 10 * time.Second, ScaleDownFrac: frac})
		spec := f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
		f.hotc.Start()
		defer f.hotc.Stop()
		// Prewarm a large pool directly, then let demand go to zero.
		// (Sleep, not Run: the running controller keeps the event
		// queue non-empty forever.)
		f.hotc.Pool().Prewarm(spec, workload.QRApp(workload.Python), 16, nil)
		f.sched.Sleep(5 * time.Second)
		var sizes []int
		for i := 0; i < 6; i++ {
			f.sched.Sleep(10 * time.Second)
			sizes = append(sizes, f.hotc.Pool().NumLive(spec.Key()))
		}
		return sizes
	}
	fast := run(1.0)
	slow := run(0.1)
	// The slow configuration must retain more capacity at every tick
	// until both converge.
	if slow[0] <= fast[0] {
		t.Fatalf("slow scale-down %v should retain more than fast %v after one tick", slow, fast)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i] > slow[i-1] {
			t.Fatalf("scale-down must be monotone: %v", slow)
		}
	}
}

// Headroom provisions above the raw forecast.
func TestHeadroomProvisioning(t *testing.T) {
	run := func(headroom float64) int {
		f := newFixture(t, Options{Interval: 10 * time.Second, Headroom: headroom})
		spec := f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
		f.hotc.Start()
		defer f.hotc.Stop()
		// Steady demand of 4 concurrent requests per interval.
		var sched []trace.Request
		for round := 0; round < 8; round++ {
			for i := 0; i < 4; i++ {
				sched = append(sched, trace.Request{At: time.Duration(round) * 10 * time.Second, Round: round})
			}
		}
		if _, err := faas.Run(f.gw, sched, func(int) string { return "qr" }); err != nil {
			t.Fatal(err)
		}
		return f.hotc.Pool().NumLive(spec.Key())
	}
	plain := run(0)
	padded := run(0.5)
	if padded <= plain {
		t.Fatalf("headroom 0.5 pool (%d) should exceed plain pool (%d)", padded, plain)
	}
}

// The controller keeps one warm container within its 30-minute retain
// window and releases it afterwards.
func TestRetainIdleWindow(t *testing.T) {
	f := newFixture(t, Options{Interval: 10 * time.Second})
	spec := f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	f.hotc.Start()
	defer f.hotc.Stop()
	if _, err := faas.Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	f.sched.Sleep(29 * time.Minute) // inside the window
	if f.hotc.Pool().NumLive(spec.Key()) != 1 {
		t.Fatal("runtime retired inside the retain-idle window")
	}
	f.sched.Sleep(2 * time.Minute) // beyond the window
	if f.hotc.Pool().NumLive(spec.Key()) != 0 {
		t.Fatal("runtime survived past the retain-idle window")
	}
}

// The retain window ends exclusively, as kernel.Expired does for every
// keep-alive: a runtime type whose last request arrived exactly one
// window before a tick is not retained at that tick.
func TestRetainWindowExclusiveAtItsEnd(t *testing.T) {
	f := newFixture(t, Options{Interval: 10 * time.Second})
	app := workload.QRApp(workload.Python)
	spec := f.deploy(t, "qr", "python:3.8", app)
	f.hotc.Start()
	defer f.hotc.Stop()
	// The request arrives at the instant the controller started, so a
	// tick falls exactly 30 minutes after it.
	f.hotc.Acquire(spec, func(c *container.Container, _ bool, _ config.Delta, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f.eng.Exec(c, app, func(_ time.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			f.hotc.Complete(c, spec)
		})
	})
	f.sched.Sleep(30*time.Minute - time.Second)
	if n := f.hotc.Pool().NumLive(spec.Key()); n != 1 {
		t.Fatalf("%d runtimes live a second before the window ends, want 1", n)
	}
	f.sched.Sleep(2 * time.Second) // the tick at exactly 30 minutes, and no other
	if n := f.hotc.Pool().NumLive(spec.Key()); n != 0 {
		t.Fatalf("%d runtimes live after the tick one window after the last arrival, want 0", n)
	}
}

func TestLiveByKey(t *testing.T) {
	f := newFixture(t, Options{})
	spec := f.deploy(t, "qr", "python:3.8", workload.QRApp(workload.Python))
	if live, _ := f.hotc.pool.Occupancy(spec); live != 0 {
		t.Fatalf("%d containers live before any request", live)
	}
	if _, err := faas.Run(f.gw, []trace.Request{{At: 0}}, func(int) string { return "qr" }); err != nil {
		t.Fatal(err)
	}
	if live, _ := f.hotc.pool.Occupancy(spec); live != 1 {
		t.Fatalf("%d containers live for the key after one request, want 1", live)
	}
}

// A warm hit, its exec and its release allocate nothing: the pool's
// reuse branch serves the hit synchronously, the engine keeps the exec
// and the cleanup on the container, and the cleanup ends in the
// completion the key's pool entry bound once.
func TestWarmHitZeroAlloc(t *testing.T) {
	f := newFixture(t, Options{})
	app := workload.QRApp(workload.Python)
	spec := f.deploy(t, "qr", "python:3.8", app)
	var c *container.Container
	var reused bool
	acquired := func(got *container.Container, r bool, _ config.Delta, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c, reused = got, r
	}
	executed := func(_ time.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f.hotc.Complete(c, spec)
	}
	round := func() {
		f.hotc.Acquire(spec, acquired)
		if err := f.sched.Run(); err != nil {
			t.Fatal(err)
		}
		f.eng.Exec(c, app, executed)
		if err := f.sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // boots the runtime
	round()
	if !reused {
		t.Fatal("the second request did not reuse the runtime")
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm hit, exec and release allocate %v times, want 0", allocs)
	}
	if !reused || f.hotc.Pool().Stats().Misses != 1 {
		t.Fatalf("reused = %v after %d misses, want every request after the first warm", reused, f.hotc.Pool().Stats().Misses)
	}
}
