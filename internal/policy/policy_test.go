package policy

import (
	"testing"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/image"
	"hotc/internal/pool"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

type fixture struct {
	sched *simclock.Scheduler
	eng   *container.Engine
	reg   *image.Registry
	pool  *pool.Pool
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	return &fixture{sched: sched, eng: eng, reg: reg, pool: pool.New(eng, pool.Options{})}
}

func (f *fixture) spec(t *testing.T, img string) *container.Spec {
	t.Helper()
	s, err := container.ResolveSpec(config.Runtime{Image: img}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// acquireExecComplete drives one full request through a policy.
func acquireExecComplete(t *testing.T, f *fixture, p interface {
	Acquire(*container.Spec, func(*container.Container, bool, config.Delta, error))
	Complete(*container.Container, *container.Spec)
}, spec *container.Spec, app workload.App) (reused bool) {
	t.Helper()
	finished := false
	p.Acquire(spec, func(c *container.Container, r bool, _ config.Delta, err error) {
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		reused = r
		f.eng.Exec(c, app, func(_ time.Duration, err error) {
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			p.Complete(c, spec)
			finished = true
		})
	})
	// Step (not drain): periodic pingers keep the queue non-empty.
	for !finished {
		if !f.sched.Step() {
			t.Fatal("scheduler drained before request completed")
		}
	}
	f.sched.Sleep(time.Second) // settle post-completion housekeeping
	return reused
}

func TestNoReuseStopsEverything(t *testing.T) {
	f := newFixture(t)
	p := NewNoReuse(f.eng)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)
	for i := 0; i < 3; i++ {
		if reused := acquireExecComplete(t, f, p, spec, app); reused {
			t.Fatalf("request %d reused under NoReuse", i)
		}
	}
	if f.eng.Live() != 0 {
		t.Fatalf("NoReuse leaked %d containers", f.eng.Live())
	}
	if f.eng.Stats().Created != 3 || f.eng.Stats().Stopped != 3 {
		t.Fatalf("stats = %+v", f.eng.Stats())
	}
}

func TestFixedKeepAliveReusesWithinWindow(t *testing.T) {
	f := newFixture(t)
	p := NewFixedKeepAlive(f.pool, 10*time.Minute)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)

	if acquireExecComplete(t, f, p, spec, app) {
		t.Fatal("first request reused")
	}
	f.sched.Sleep(5 * time.Minute) // inside the window
	if !acquireExecComplete(t, f, p, spec, app) {
		t.Fatal("second request should reuse inside keep-alive window")
	}
}

func TestFixedKeepAliveExpiresAfterWindow(t *testing.T) {
	f := newFixture(t)
	p := NewFixedKeepAlive(f.pool, 10*time.Minute)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)

	acquireExecComplete(t, f, p, spec, app)
	if f.eng.Live() != 1 {
		t.Fatalf("live = %d after first request", f.eng.Live())
	}
	// Past the window, the container is torn down.
	f.sched.Sleep(11 * time.Minute)
	if f.eng.Live() != 0 {
		t.Fatalf("live = %d after expiry, want 0", f.eng.Live())
	}
	// And the next request cold-starts.
	if acquireExecComplete(t, f, p, spec, app) {
		t.Fatal("request after expiry reused")
	}
}

func TestFixedKeepAliveWindowResetsOnReuse(t *testing.T) {
	f := newFixture(t)
	p := NewFixedKeepAlive(f.pool, 10*time.Minute)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)

	acquireExecComplete(t, f, p, spec, app)
	f.sched.Sleep(8 * time.Minute)
	acquireExecComplete(t, f, p, spec, app) // reuse at t≈8m resets window
	f.sched.Sleep(8 * time.Minute)          // t≈16m: only 8m idle
	if f.eng.Live() != 1 {
		t.Fatal("window should have reset on reuse")
	}
	f.sched.Sleep(5 * time.Minute) // now >10m idle
	if f.eng.Live() != 0 {
		t.Fatal("container should expire after the reset window lapses")
	}
}

func TestFixedKeepAliveDefaultWindow(t *testing.T) {
	f := newFixture(t)
	p := NewFixedKeepAlive(f.pool, 0)
	if p.Name() != "fixed-keepalive(15m0s)" {
		t.Fatalf("Name = %q, want the AWS-style 15m default", p.Name())
	}
}

func TestPeriodicWarmupKeepsWarmForever(t *testing.T) {
	f := newFixture(t)
	p := NewPeriodicWarmup(f.pool, 10*time.Minute)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)

	acquireExecComplete(t, f, p, spec, app)
	p.StartPinger(spec, app)
	// Far past the keep-alive window, the pings keep the container
	// alive.
	f.sched.Sleep(60 * time.Minute)
	if f.eng.Live() != 1 {
		t.Fatalf("live = %d under periodic warmup, want 1", f.eng.Live())
	}
	// The last ping, at most a period ago, refreshed it.
	if idle := f.pool.Available(spec); len(idle) != 1 || idle[0].LastUsedAt < f.sched.Now()-warmupPeriod {
		t.Fatalf("no ping refreshed the idle container in the last %v", warmupPeriod)
	}
	if !acquireExecComplete(t, f, p, spec, app) {
		t.Fatal("request under periodic warmup should reuse")
	}
	p.StopPingers()
	f.sched.Sleep(30 * time.Minute)
	if f.eng.Live() != 0 {
		t.Fatal("after pingers stop the keep-alive should lapse")
	}
}

func TestPeriodicWarmupBootsWhenNoneLive(t *testing.T) {
	f := newFixture(t)
	p := NewPeriodicWarmup(f.pool, 10*time.Minute)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)
	p.StartPinger(spec, app)
	f.sched.Sleep(warmupPeriod + time.Minute)
	if f.eng.Live() != 1 {
		t.Fatalf("pinger should boot a container: live = %d", f.eng.Live())
	}
	// The booted container is warm: the first real request reuses it.
	if !acquireExecComplete(t, f, p, spec, app) {
		t.Fatal("request should reuse the pre-booted container")
	}
	p.StopPingers()
}

func TestHistogramAdaptsWindowToArrivalRate(t *testing.T) {
	f := newFixture(t)
	h := NewHistogram(f.pool)
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)

	// A steady 30s-interval arrival stream: p99 IAT ~30s, so the
	// adaptive window is ~36s (margin 1.2) — far below the 1h max.
	for i := 0; i < 20; i++ {
		acquireExecComplete(t, f, h, spec, app)
		f.sched.Sleep(30 * time.Second)
	}
	w := h.rule.Window(string(spec.Key()))
	if w < 30*time.Second || w > 2*time.Minute {
		t.Fatalf("adaptive window = %v, want ~36s", w)
	}
	// Within the adaptive window the container is retained...
	if f.eng.Live() != 1 {
		t.Fatalf("live = %d inside adaptive window", f.eng.Live())
	}
	// ...and once idle far beyond it, released.
	f.sched.Sleep(5 * time.Minute)
	if f.eng.Live() != 0 {
		t.Fatalf("live = %d after adaptive expiry, want 0", f.eng.Live())
	}
}

func TestNames(t *testing.T) {
	f := newFixture(t)
	names := map[string]bool{}
	for _, n := range []string{
		NewNoReuse(f.eng).Name(),
		NewFixedKeepAlive(f.pool, time.Minute).Name(),
		NewPeriodicWarmup(f.pool, time.Minute).Name(),
		NewHistogram(f.pool).Name(),
	} {
		if n == "" || names[n] {
			t.Fatalf("bad or duplicate name %q", n)
		}
		names[n] = true
	}
}
