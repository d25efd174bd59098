package pool

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/image"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

type fixture struct {
	sched *simclock.Scheduler
	eng   *container.Engine
	reg   *image.Registry
	pool  *Pool
}

func newFixture(t *testing.T, opts Options) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	return &fixture{sched: sched, eng: eng, reg: reg, pool: New(eng, opts)}
}

func (f *fixture) spec(t *testing.T, rt config.Runtime) container.Spec {
	t.Helper()
	s, err := container.ResolveSpec(rt, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pySpec(t *testing.T, f *fixture) container.Spec {
	return f.spec(t, config.Runtime{Image: "python:3.8"})
}

// acquire runs a full Acquire and drains the scheduler.
func (f *fixture) acquire(t *testing.T, spec container.Spec) (*container.Container, bool) {
	t.Helper()
	var ctr *container.Container
	var reused bool
	f.pool.Acquire(spec, func(c *container.Container, r bool, _ config.Delta, err error) {
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		ctr, reused = c, r
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if ctr == nil {
		t.Fatal("acquire never completed")
	}
	return ctr, reused
}

// execAndRelease runs the app and returns the container to the pool.
func (f *fixture) execAndRelease(t *testing.T, c *container.Container, app workload.App) {
	t.Helper()
	f.eng.Exec(c, app, func(_ time.Duration, err error) {
		if err != nil {
			t.Fatalf("exec: %v", err)
		}
		f.pool.Release(c, nil)
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireColdThenReuse(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	app := workload.QRApp(workload.Python)

	c1, reused := f.acquire(t, spec)
	if reused {
		t.Fatal("first acquire should be a cold start")
	}
	f.execAndRelease(t, c1, app)

	c2, reused := f.acquire(t, spec)
	if !reused {
		t.Fatal("second acquire should reuse")
	}
	if c2 != c1 {
		t.Fatal("should reuse the same container")
	}
	st := f.pool.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAcquireHitIsInstant(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	c, _ := f.acquire(t, spec)
	f.execAndRelease(t, c, workload.QRApp(workload.Python))

	before := f.sched.Now()
	_, reused := f.acquire(t, spec)
	if !reused {
		t.Fatal("expected reuse")
	}
	if f.sched.Now() != before {
		t.Fatal("pool hit should take no simulated time")
	}
}

func TestAcquireWhileBusyStartsNew(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	app := workload.QRApp(workload.Python)
	c1, _ := f.acquire(t, spec)

	// Keep c1 busy and acquire again during the execution.
	var c2 *container.Container
	f.eng.Exec(c1, app, func(time.Duration, error) {})
	f.pool.Acquire(spec, func(c *container.Container, reused bool, _ config.Delta, err error) {
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if reused {
			t.Fatal("busy container must not be reused")
		}
		c2 = c
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if c2 == nil || c2 == c1 {
		t.Fatal("expected a distinct new container")
	}
	if f.pool.NumLive(spec.Key()) != 2 {
		t.Fatalf("NumLive = %d", f.pool.NumLive(spec.Key()))
	}
}

func TestReservationPreventsDoubleAssign(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	c, _ := f.acquire(t, spec)
	f.execAndRelease(t, c, workload.QRApp(workload.Python))

	// Two acquires in the same instant: only one may get the idle
	// container.
	var got []*container.Container
	for i := 0; i < 2; i++ {
		f.pool.Acquire(spec, func(c *container.Container, _ bool, _ config.Delta, err error) {
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			got = append(got, c)
		})
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("double assignment: %v", got)
	}
}

func TestReleaseUnused(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	c, _ := f.acquire(t, spec)
	f.execAndRelease(t, c, workload.QRApp(workload.Python))

	c2, reused := f.acquire(t, spec)
	if !reused {
		t.Fatal("expected hit")
	}
	if f.pool.NumAvail(spec.Key()) != 0 {
		t.Fatal("reserved container still counted available")
	}
	f.pool.ReleaseUnused(c2)
	if f.pool.NumAvail(spec.Key()) != 1 {
		t.Fatal("unreserved container should be available again")
	}
}

func TestNumAvailTracksStates(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	app := workload.QRApp(workload.Python)
	key := spec.Key()

	c, _ := f.acquire(t, spec)
	if f.pool.NumAvail(key) != 0 {
		t.Fatal("freshly acquired container should be reserved")
	}
	f.execAndRelease(t, c, app)
	if f.pool.NumAvail(key) != 1 {
		t.Fatalf("NumAvail = %d after release", f.pool.NumAvail(key))
	}
}

func TestMaxLiveEvictsOldest(t *testing.T) {
	f := newFixture(t, Options{MaxLive: 3})
	app := workload.QRApp(workload.Python)
	specs := []container.Spec{
		f.spec(t, config.Runtime{Image: "python:3.8"}),
		f.spec(t, config.Runtime{Image: "node:10"}),
		f.spec(t, config.Runtime{Image: "golang:1.12"}),
		f.spec(t, config.Runtime{Image: "openjdk:8"}),
	}
	var first *container.Container
	for i, s := range specs[:3] {
		c, _ := f.acquire(t, s)
		if i == 0 {
			first = c
		}
		f.execAndRelease(t, c, app)
	}
	if f.pool.Live() != 3 {
		t.Fatalf("Live = %d", f.pool.Live())
	}
	// The fourth distinct runtime must evict the oldest (the first).
	f.acquire(t, specs[3])
	if f.pool.Live() != 3 {
		t.Fatalf("Live after eviction = %d", f.pool.Live())
	}
	if f.pool.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d", f.pool.Stats().Evictions)
	}
	if f.pool.NumLive(specs[0].Key()) != 0 {
		t.Fatal("oldest key should be gone")
	}
	_ = first
}

func TestMemoryPressureEvicts(t *testing.T) {
	pressure := false
	f := newFixture(t, Options{
		MemUsedPct: func() float64 {
			if pressure {
				return 95
			}
			return 10
		},
	})
	app := workload.QRApp(workload.Python)
	c1, _ := f.acquire(t, f.spec(t, config.Runtime{Image: "python:3.8"}))
	f.execAndRelease(t, c1, app)

	pressure = true
	// Under pressure, acquiring a new runtime type evicts the idle one
	// first. The pressure function stays high, so eviction stops when
	// nothing is left to evict rather than looping forever.
	f.acquire(t, f.spec(t, config.Runtime{Image: "node:10"}))
	if f.pool.Stats().Evictions == 0 {
		t.Fatal("memory pressure did not evict")
	}
}

func TestPrewarm(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	app := workload.QRApp(workload.Python)
	doneCount := 0
	f.pool.Prewarm(spec, app, 3, func(err error) {
		if err != nil {
			t.Fatalf("prewarm: %v", err)
		}
		doneCount++
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if doneCount != 3 {
		t.Fatalf("prewarm completions = %d", doneCount)
	}
	if f.pool.NumAvail(spec.Key()) != 3 {
		t.Fatalf("NumAvail = %d", f.pool.NumAvail(spec.Key()))
	}
	if f.pool.Stats().Prewarmed != 3 {
		t.Fatalf("Prewarmed = %d", f.pool.Stats().Prewarmed)
	}
	// Prewarmed containers serve without paying init.
	c, reused := f.acquire(t, spec)
	if !reused {
		t.Fatal("prewarmed container not reused")
	}
	if !c.WarmFor(app) {
		t.Fatal("prewarmed container not warm")
	}
}

func TestRetire(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	app := workload.QRApp(workload.Python)
	f.pool.Prewarm(spec, app, 4, nil)
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	n := f.pool.Retire(spec.Key(), 2)
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Retire initiated %d", n)
	}
	if f.pool.NumLive(spec.Key()) != 2 {
		t.Fatalf("NumLive = %d", f.pool.NumLive(spec.Key()))
	}
	if f.pool.Stats().Retired != 2 {
		t.Fatalf("Retired = %d", f.pool.Stats().Retired)
	}
	// Retiring more than available stops at what exists.
	if got := f.pool.Retire(spec.Key(), 10); got != 2 {
		t.Fatalf("second Retire = %d, want 2", got)
	}
}

func TestRelaxedReuse(t *testing.T) {
	f := newFixture(t, Options{EnableRelaxed: true})
	app := workload.QRApp(workload.Python)
	base := f.spec(t, config.Runtime{Image: "python:3.8", Env: []string{"A=1"}})
	c, _ := f.acquire(t, base)
	f.execAndRelease(t, c, app)

	// Same namespace config, different env: relaxed hit with a delta.
	variant := f.spec(t, config.Runtime{Image: "python:3.8", Env: []string{"B=2"}})
	var gotDelta config.Delta
	var gotReused bool
	f.pool.Acquire(variant, func(cc *container.Container, reused bool, d config.Delta, err error) {
		if err != nil {
			t.Fatal(err)
		}
		gotReused, gotDelta = reused, d
		if cc != c {
			t.Fatal("relaxed hit should return the existing container")
		}
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotReused || gotDelta.Empty() {
		t.Fatalf("reused=%v delta=%+v", gotReused, gotDelta)
	}
	if f.pool.Stats().RelaxedHits != 1 {
		t.Fatalf("RelaxedHits = %d", f.pool.Stats().RelaxedHits)
	}
}

func TestRelaxedDisabledMisses(t *testing.T) {
	f := newFixture(t, Options{})
	app := workload.QRApp(workload.Python)
	c, _ := f.acquire(t, f.spec(t, config.Runtime{Image: "python:3.8", Env: []string{"A=1"}}))
	f.execAndRelease(t, c, app)

	_, reused := f.acquire(t, f.spec(t, config.Runtime{Image: "python:3.8", Env: []string{"B=2"}}))
	if reused {
		t.Fatal("relaxed reuse should be off by default")
	}
}

func TestRelaxedNeverCrossesNamespaceConfig(t *testing.T) {
	f := newFixture(t, Options{EnableRelaxed: true})
	app := workload.QRApp(workload.Python)
	c, _ := f.acquire(t, f.spec(t, config.Runtime{Image: "python:3.8", Network: "bridge"}))
	f.execAndRelease(t, c, app)

	_, reused := f.acquire(t, f.spec(t, config.Runtime{Image: "python:3.8", Network: "host"}))
	if reused {
		t.Fatal("different network mode must not be relaxed-matched")
	}
}

func TestReleaseStoppedFails(t *testing.T) {
	f := newFixture(t, Options{})
	spec := pySpec(t, f)
	c, _ := f.acquire(t, spec)
	f.execAndRelease(t, c, workload.QRApp(workload.Python))
	f.pool.Retire(spec.Key(), 1)
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	var relErr error
	f.pool.Release(c, func(err error) { relErr = err })
	if relErr == nil {
		t.Fatal("releasing a stopped container should fail")
	}
}

func TestAcquirePropagatesCreateError(t *testing.T) {
	f := newFixture(t, Options{})
	boom := errors.New("create broke")
	f.eng.CreateHook = func(container.Spec) error { return boom }
	var gotErr error
	f.pool.Acquire(pySpec(t, f), func(_ *container.Container, _ bool, _ config.Delta, err error) {
		gotErr = err
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotErr, boom) {
		t.Fatalf("err = %v", gotErr)
	}
	if f.pool.Live() != 0 {
		t.Fatal("failed create polluted the pool")
	}
}

func TestOldestAge(t *testing.T) {
	f := newFixture(t, Options{})
	if f.pool.OldestAge(f.sched.Now()) != 0 {
		t.Fatal("empty pool should report zero age")
	}
	c, _ := f.acquire(t, pySpec(t, f))
	f.execAndRelease(t, c, workload.QRApp(workload.Python))
	f.sched.Sleep(time.Minute)
	if age := f.pool.OldestAge(f.sched.Now()); age < time.Minute {
		t.Fatalf("age = %v", age)
	}
}

func TestEvictionPolicyLRU(t *testing.T) {
	// Three runtime types at cap 3. The oldest container is the most
	// recently used: oldest-first evicts it, LRU spares it.
	app := workload.QRApp(workload.Python)
	build := func(ev EvictionPolicy) (*fixture, []*container.Container) {
		f := newFixture(t, Options{MaxLive: 3, Eviction: ev})
		imgs := []string{"python:3.8", "node:10", "golang:1.12"}
		var ctrs []*container.Container
		for _, img := range imgs {
			c, _ := f.acquire(t, f.spec(t, config.Runtime{Image: img}))
			f.execAndRelease(t, c, app)
			f.sched.Sleep(time.Minute)
			ctrs = append(ctrs, c)
		}
		// Touch the first (oldest) container so it is the most
		// recently used.
		c0, reused := f.acquire(t, f.spec(t, config.Runtime{Image: imgs[0]}))
		if !reused || c0 != ctrs[0] {
			t.Fatal("expected to reuse the first container")
		}
		f.execAndRelease(t, c0, app)
		return f, ctrs
	}

	fOld, ctrsOld := build(EvictOldest)
	fOld.acquire(t, fOld.spec(t, config.Runtime{Image: "openjdk:8"}))
	if ctrsOld[0].State() != container.Stopped {
		t.Fatal("oldest-first should evict the first-created container")
	}

	fLRU, ctrsLRU := build(EvictLRU)
	fLRU.acquire(t, fLRU.spec(t, config.Runtime{Image: "openjdk:8"}))
	if ctrsLRU[0].State() == container.Stopped {
		t.Fatal("LRU must spare the recently used container")
	}
	if ctrsLRU[1].State() != container.Stopped {
		t.Fatal("LRU should evict the least recently used container")
	}
}

// Containers prewarmed in one control tick share a virtual timestamp;
// the victim among them must not depend on the order Go ranges over the
// pool's per-key map. Two keys, four same-instant containers, 50 fresh
// pools per policy: the same ID goes every time.
func TestEvictOldestDeterministicOnTies(t *testing.T) {
	app := workload.QRApp(workload.Python)
	for _, ev := range []EvictionPolicy{EvictOldest, EvictLRU} {
		for i := 0; i < 50; i++ {
			f := newFixture(t, Options{Eviction: ev})
			var all []*container.Container
			for _, tenant := range []string{"TENANT=a", "TENANT=b"} {
				f.pool.Prewarm(f.spec(t, config.Runtime{Image: "python:3.8", Env: []string{tenant}}), app, 2, nil)
			}
			if err := f.sched.Run(); err != nil {
				t.Fatal(err)
			}
			for _, key := range f.pool.Keys() {
				all = append(all, f.pool.Available(key)...)
			}
			if len(all) != 4 {
				t.Fatalf("prewarmed %d containers over %d keys, want 4 over 2", len(all), len(f.pool.Keys()))
			}
			for _, c := range all {
				if c.CreatedAt != all[0].CreatedAt || c.LastUsedAt != all[0].LastUsedAt {
					t.Fatalf("%s is not a tie: created %v, used %v", c.ID, c.CreatedAt, c.LastUsedAt)
				}
			}
			if !f.pool.EvictOldest() {
				t.Fatal("nothing evicted")
			}
			for _, c := range all {
				if c.State() != container.Available && c.ID != "ctr-000001" {
					t.Fatalf("%v, pool %d: evicted %s, want the lowest ID ctr-000001", ev, i, c.ID)
				}
			}
		}
	}
}

func TestEvictionPolicyNames(t *testing.T) {
	if EvictOldest.String() != "oldest-first" || EvictLRU.String() != "lru" {
		t.Fatal("eviction policy names wrong")
	}
	if EvictionPolicy(9).String() == "" {
		t.Fatal("unknown policy should render")
	}
}

func TestEvictOldestEmptyPool(t *testing.T) {
	f := newFixture(t, Options{})
	if f.pool.EvictOldest() {
		t.Fatal("evicting from empty pool should report false")
	}
}

// Property: pool invariant — NumAvail(key) always equals the count of
// containers in Available state under that key, and Live() equals the
// sum of per-key NumLive, under arbitrary operation sequences.
func TestPropertyPoolInvariants(t *testing.T) {
	images := []string{"python:3.8", "node:10", "golang:1.12"}
	f := func(ops []uint8) bool {
		fix := newFixture(&testing.T{}, Options{MaxLive: 6})
		app := workload.RandomNumber(workload.Python)
		var held []*container.Container
		for _, op := range ops {
			img := images[int(op/4)%len(images)]
			spec, err := container.ResolveSpec(config.Runtime{Image: img}, fix.reg)
			if err != nil {
				return false
			}
			switch op % 4 {
			case 0: // acquire and hold
				fix.pool.Acquire(spec, func(c *container.Container, _ bool, _ config.Delta, err error) {
					if err == nil {
						held = append(held, c)
					}
				})
			case 1: // exec+release the first held container
				if len(held) > 0 {
					c := held[0]
					held = held[1:]
					fix.eng.Exec(c, app, func(time.Duration, error) {
						fix.pool.Release(c, nil)
					})
				}
			case 2: // prewarm one
				fix.pool.Prewarm(spec, app, 1, nil)
			case 3: // retire one
				fix.pool.Retire(spec.Key(), 1)
			}
			if err := fix.sched.Run(); err != nil {
				return false
			}
			// Check invariants after the system settles.
			total := 0
			for _, key := range fix.pool.Keys() {
				total += fix.pool.NumLive(key)
				avail := 0
				for _, c := range fix.eng.LiveContainers() {
					if c.Key() == key && c.State() == container.Available {
						avail++
					}
				}
				if fix.pool.NumAvail(key) != avail {
					return false
				}
			}
			if total != fix.pool.Live() {
				return false
			}
			// When idle capacity exists, the cap holds; when every
			// container is busy or reserved, the pool must still grow
			// to serve requests, so no upper bound applies then.
			idle := 0
			for _, c := range fix.eng.LiveContainers() {
				if c.State() == container.Available {
					idle++
				}
			}
			if idle > 0 && fix.pool.Live() > 6+idle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
