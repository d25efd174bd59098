package container

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"hotc/internal/config"
	"hotc/internal/costmodel"
	"hotc/internal/image"
	"hotc/internal/network"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

type fixture struct {
	sched  *simclock.Scheduler
	engine *Engine
	reg    *image.Registry
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	// Noiseless engine (nil jitter source) for exact assertions.
	eng := NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	return &fixture{sched: sched, engine: eng, reg: reg}
}

func (f *fixture) mustSpec(t *testing.T, rt config.Runtime) *Spec {
	t.Helper()
	spec, err := ResolveSpec(rt, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func (f *fixture) mustCreate(t *testing.T, spec *Spec) *Container {
	t.Helper()
	var ctr *Container
	f.engine.Create(spec, func(c *Container, err error) {
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		ctr = c
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if ctr == nil {
		t.Fatal("create callback never ran")
	}
	return ctr
}

func pySpec(t *testing.T, f *fixture) *Spec {
	return f.mustSpec(t, config.Runtime{Image: "python:3.8", Network: "bridge"})
}

func TestResolveSpec(t *testing.T) {
	f := newFixture(t)
	spec := pySpec(t, f)
	if spec.Image.Ref() != "python:3.8" {
		t.Fatalf("image = %q", spec.Image.Ref())
	}
	if spec.Net != network.Bridge {
		t.Fatalf("net = %v", spec.Net)
	}
	if spec.Key() == "" {
		t.Fatal("empty key")
	}
}

func TestResolveSpecErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := ResolveSpec(config.Runtime{Image: "nothere:1"}, f.reg); err == nil {
		t.Fatal("missing image resolved")
	}
	if _, err := ResolveSpec(config.Runtime{}, f.reg); err == nil {
		t.Fatal("invalid runtime resolved")
	}
}

func TestCreateColdVsWarmCache(t *testing.T) {
	f := newFixture(t)
	spec := pySpec(t, f)
	coldCost := f.engine.StartCost(spec)

	c := f.mustCreate(t, spec)
	if c.State() != Available {
		t.Fatalf("state = %v", c.State())
	}
	// Second create of the same image: layers are cached, so the start
	// cost must drop by the pull+unpack amount.
	warmCost := f.engine.StartCost(spec)
	if warmCost >= coldCost {
		t.Fatalf("cached start %v not cheaper than cold %v", warmCost, coldCost)
	}
	if f.engine.Stats().PulledMB != spec.Image.SizeMB() {
		t.Fatalf("pulled %v MB, want %v", f.engine.Stats().PulledMB, spec.Image.SizeMB())
	}
}

func TestCreateTakesSimulatedTime(t *testing.T) {
	f := newFixture(t)
	spec := pySpec(t, f)
	want := f.engine.StartCost(spec)
	f.mustCreate(t, spec)
	if f.sched.Now() != want {
		t.Fatalf("clock advanced %v, want %v", f.sched.Now(), want)
	}
}

func TestExecColdThenWarm(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	app := workload.QRApp(workload.Python)

	coldCost := f.engine.ExecCost(c, app)
	var gotCold time.Duration
	f.engine.Exec(c, app, func(d time.Duration, err error) {
		if err != nil {
			t.Fatalf("exec: %v", err)
		}
		gotCold = d
	})
	if c.State() != NotAvailable {
		t.Fatal("container should be busy during exec")
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if gotCold != coldCost {
		t.Fatalf("cold exec = %v, want %v", gotCold, coldCost)
	}
	if !c.warmFor(app.Name) {
		t.Fatal("container not warm after exec")
	}

	warmCost := f.engine.ExecCost(c, app)
	if warmCost >= coldCost {
		t.Fatalf("warm exec %v not cheaper than cold %v", warmCost, coldCost)
	}
	// The saving is exactly the init cost plus the cold-exec penalty.
	cm := f.engine.Model()
	wantWarm := cm.WatchdogShimCost() + cm.ExecCost(app.Exec)
	if warmCost != wantWarm {
		t.Fatalf("warm exec = %v, want %v", warmCost, wantWarm)
	}

	st := f.engine.Stats()
	if st.ColdStarts != 1 || st.WarmStarts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecOnBusyFails(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	app := workload.QRApp(workload.Python)
	f.engine.Exec(c, app, func(time.Duration, error) {})
	var execErr error
	f.engine.Exec(c, app, func(_ time.Duration, err error) { execErr = err })
	if execErr == nil {
		t.Fatal("second exec on busy container should fail immediately")
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExecInvalidApp(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	var execErr error
	f.engine.Exec(c, workload.App{}, func(_ time.Duration, err error) { execErr = err })
	if execErr == nil {
		t.Fatal("invalid app accepted")
	}
}

func TestWarmup(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	app := workload.QRApp(workload.Python)
	before := f.sched.Now()
	var warmErr error
	f.engine.Warmup(c, app, func(err error) { warmErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	if !c.warmFor(app.Name) {
		t.Fatal("not warm after warmup")
	}
	wantCost := f.engine.Model().InitCost(app.InitCost())
	if got := f.sched.Now() - before; got != wantCost {
		t.Fatalf("warmup took %v, want %v", got, wantCost)
	}
	// Idempotent and free the second time.
	before = f.sched.Now()
	f.engine.Warmup(c, app, func(err error) { warmErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if f.sched.Now() != before {
		t.Fatal("second warmup should be instantaneous")
	}
}

func TestCleanVolume(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	app := workload.QRApp(workload.Python)
	f.engine.Exec(c, app, func(time.Duration, error) {})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Volume.Dirty || c.Volume.Generation != 1 {
		t.Fatalf("volume after exec = %+v", c.Volume)
	}
	var cleanErr error
	f.engine.CleanVolume(c, func(err error) { cleanErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if cleanErr != nil {
		t.Fatal(cleanErr)
	}
	if c.Volume.Dirty || c.Volume.Generation != 2 {
		t.Fatalf("volume after clean = %+v", c.Volume)
	}
	if f.engine.Stats().CleanedVols != 1 {
		t.Fatal("clean not counted")
	}
	// Cleaning a clean volume is free.
	before := f.sched.Now()
	f.engine.CleanVolume(c, func(err error) { cleanErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if f.sched.Now() != before || c.Volume.Generation != 2 {
		t.Fatal("cleaning a clean volume should be a no-op")
	}
}

func TestStopDeletesVolume(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	stopped := false
	f.engine.Stop(c, func() { stopped = true })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("stop callback never ran")
	}
	if c.State() != Stopped || !c.Volume.Deleted {
		t.Fatalf("after stop: state=%v volume=%+v", c.State(), c.Volume)
	}
	if f.engine.Live() != 0 {
		t.Fatalf("live = %d after stop", f.engine.Live())
	}
	// Exec on stopped container fails.
	var execErr error
	f.engine.Exec(c, workload.QRApp(workload.Python), func(_ time.Duration, err error) { execErr = err })
	if execErr == nil {
		t.Fatal("exec on stopped container accepted")
	}
	// CleanVolume on stopped container fails.
	var cleanErr error
	f.engine.CleanVolume(c, func(err error) { cleanErr = err })
	if cleanErr == nil {
		t.Fatal("clean on stopped container accepted")
	}
	// Double stop is a no-op.
	f.engine.Stop(c, nil)
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateHookFailureInjection(t *testing.T) {
	f := newFixture(t)
	boom := errors.New("no memory")
	f.engine.CreateHook = func(*Spec) error { return boom }
	var createErr error
	f.engine.Create(pySpec(t, f), func(_ *Container, err error) { createErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(createErr, boom) {
		t.Fatalf("create err = %v, want wrapped boom", createErr)
	}
	if f.engine.Live() != 0 || f.engine.Stats().Created != 0 {
		t.Fatal("failed create leaked a container")
	}
}

func TestExecHookFailureInjection(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	boom := errors.New("oom killed")
	f.engine.ExecHook = func(*Container, workload.App) error { return boom }
	var execErr error
	f.engine.Exec(c, workload.QRApp(workload.Python), func(_ time.Duration, err error) { execErr = err })
	if !errors.Is(execErr, boom) {
		t.Fatalf("exec err = %v", execErr)
	}
	if c.State() != Available {
		t.Fatal("failed exec left container busy")
	}
}

func TestContainerModeCheaperBoot(t *testing.T) {
	f := newFixture(t)
	bridge := f.mustSpec(t, config.Runtime{Image: "alpine:3.9", Network: "bridge"})
	peer := f.mustSpec(t, config.Runtime{Image: "alpine:3.9", Network: "container:proxy"})
	if f.engine.StartCost(peer) >= f.engine.StartCost(bridge) {
		t.Fatal("container-mode boot should be cheaper than bridge (Fig. 4c)")
	}
}

func TestOverlayBootDominates(t *testing.T) {
	f := newFixture(t)
	host := f.mustSpec(t, config.Runtime{Image: "alpine:3.9", Network: "host"})
	overlay := f.mustSpec(t, config.Runtime{Image: "alpine:3.9", Network: "overlay"})
	// Warm the cache so only engine+network remain.
	f.mustCreate(t, host)
	h := f.engine.StartCost(host)
	o := f.engine.StartCost(overlay)
	if float64(o) < 5*float64(h) {
		t.Fatalf("overlay boot %v should dwarf host boot %v", o, h)
	}
}

func TestIdleOverheadAccounting(t *testing.T) {
	f := newFixture(t)
	spec := pySpec(t, f)
	for i := 0; i < 10; i++ {
		f.mustCreate(t, spec)
	}
	if f.engine.Live() != 10 {
		t.Fatalf("live = %d", f.engine.Live())
	}
	// Fig. 15(a): ten live containers cost <1% CPU and ~7 MB memory.
	if cpu := f.engine.IdleOverheadCPUPct(); cpu >= 1 {
		t.Fatalf("idle CPU = %v%%, want < 1%%", cpu)
	}
	if mem := f.engine.IdleOverheadMemMB(); mem < 6.9 || mem > 7.1 {
		t.Fatalf("idle mem = %v MB, want ~7", mem)
	}
	if got := len(f.engine.LiveContainers()); got != 10 {
		t.Fatalf("LiveContainers = %d", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		NotExisting:  "not-existing",
		NotAvailable: "existing-not-available",
		Available:    "existing-available",
		Stopped:      "stopped",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if State(77).String() == "" {
		t.Fatal("unknown state should render")
	}
}

func TestReserveUnreserve(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	if err := f.engine.Reserve(c); err != nil {
		t.Fatal(err)
	}
	if !c.reserved || c.State() != NotAvailable {
		t.Fatal("reserve did not mark the container")
	}
	// A second reservation must fail.
	if err := f.engine.Reserve(c); err == nil {
		t.Fatal("double reserve accepted")
	}
	f.engine.Unreserve(c)
	if c.reserved || c.State() != Available {
		t.Fatal("unreserve did not restore the container")
	}
	// Unreserve of an unreserved container is a no-op.
	f.engine.Unreserve(c)
	if c.State() != Available {
		t.Fatal("spurious unreserve changed state")
	}
}

func TestExecConsumesReservation(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	if err := f.engine.Reserve(c); err != nil {
		t.Fatal(err)
	}
	var execErr error
	f.engine.Exec(c, workload.QRApp(workload.Python), func(_ time.Duration, err error) { execErr = err })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if execErr != nil {
		t.Fatal(execErr)
	}
	if c.reserved {
		t.Fatal("reservation not consumed by exec")
	}
}

func TestExecPhasesMatchExecCost(t *testing.T) {
	f := newFixture(t)
	c := f.mustCreate(t, pySpec(t, f))
	app := workload.QRApp(workload.Python)
	// Each exec's phases, as Phases reports them after it, sum to what
	// ExecCost quoted before it: cold first, then warm.
	run := func(what string) (init, exec time.Duration) {
		t.Helper()
		want := f.engine.ExecCost(c, app)
		f.engine.Exec(c, app, func(time.Duration, error) {})
		if err := f.sched.Run(); err != nil {
			t.Fatal(err)
		}
		if init, exec = c.Phases(); init+exec != want {
			t.Fatalf("%s phases %v + %v do not sum to ExecCost %v", what, init, exec, want)
		}
		return init, exec
	}
	initD, execD := run("cold")
	initW, execW := run("warm")
	if initW >= initD {
		t.Fatal("warm init phase should be smaller than cold")
	}
	if execW >= execD {
		t.Fatal("warm exec phase should drop the cold penalty")
	}
}

func TestContentionStretchesExec(t *testing.T) {
	sched := simclock.New()
	reg := image.StandardCatalog()
	consts := costmodel.Defaults()
	consts.ContentionKneePct = 50
	cm := costmodel.NewWith(consts, costmodel.Server())
	eng := NewEngine(sched, cm, reg, image.NewCache(), nil)
	spec, err := ResolveSpec(config.Runtime{Image: "cassandra:3.11"}, reg)
	if err != nil {
		t.Fatal(err)
	}
	app := workload.Cassandra() // 35% CPU each

	var first, second *Container
	eng.Create(spec, func(c *Container, err error) { first = c })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Create(spec, func(c *Container, err error) { second = c })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	var d1, d2 time.Duration
	eng.Exec(first, app, func(d time.Duration, err error) { d1 = d })  // 35% < knee: unstretched
	eng.Exec(second, app, func(d time.Duration, err error) { d2 = d }) // 70% > knee: stretched
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("contended exec %v should exceed uncontended %v", d2, d1)
	}
	ratio := float64(d2) / float64(d1)
	if ratio < 1.3 || ratio > 1.5 {
		t.Fatalf("stretch ratio = %.2f, want ~70/50", ratio)
	}
}

func TestContentionDisabledByDefault(t *testing.T) {
	f := newFixture(t)
	spec := f.mustSpec(t, config.Runtime{Image: "cassandra:3.11"})
	app := workload.Cassandra()
	var c1, c2 *Container
	f.engine.Create(spec, func(c *Container, err error) { c1 = c })
	f.engine.Create(spec, func(c *Container, err error) { c2 = c })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	var d1, d2 time.Duration
	f.engine.Exec(c1, app, func(d time.Duration, err error) { d1 = d })
	f.engine.Exec(c2, app, func(d time.Duration, err error) { d2 = d })
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("default model should not stretch: %v vs %v", d1, d2)
	}
}

// Property: for any sequence of exec/clean operations, the volume
// generation only increases and equals 1 + number of cleans that found
// a dirty volume.
func TestPropertyVolumeGenerations(t *testing.T) {
	f := func(ops []bool) bool {
		fix := newFixture(&testing.T{})
		c := fix.mustCreate(&testing.T{}, pySpec(&testing.T{}, fix))
		app := workload.RandomNumber(workload.Python)
		cleans := 0
		prevGen := c.Volume.Generation
		for _, isExec := range ops {
			if isExec {
				fix.engine.Exec(c, app, func(time.Duration, error) {})
			} else {
				if c.Volume.Dirty {
					cleans++
				}
				fix.engine.CleanVolume(c, func(error) {})
			}
			if err := fix.sched.Run(); err != nil {
				return false
			}
			if c.Volume.Generation < prevGen {
				return false
			}
			prevGen = c.Volume.Generation
		}
		return c.Volume.Generation == 1+cleans
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ResolveSpec caches the pool key on the spec; the cache must be the
// key the runtime itself derives, for anything ResolveSpec accepts.
func TestPropertyResolvedSpecKeyMatchesRuntime(t *testing.T) {
	reg := image.StandardCatalog()
	refs := reg.Refs()
	networks := []string{"", "bridge", " NAT ", "none", "host", "overlay", "routing", "container:peer"}
	pick := func(n uint8, from []string) []string { return from[:int(n)%(len(from)+1)] }
	prop := func(img, net, env, vol, ep, cmd, lbl uint8, mem, cpu uint16) bool {
		rt := config.Runtime{
			Image:      refs[int(img)%len(refs)],
			Network:    networks[int(net)%len(networks)],
			Env:        pick(env, []string{"B=2", " A=1 ", "A=1", "C="}),
			Volumes:    pick(vol, []string{"/data:/data", "/tmp:/scratch:ro"}),
			MemoryMB:   int(mem),
			CPUShares:  int(cpu),
			Entrypoint: pick(ep, []string{"python", "-u"}),
			Cmd:        pick(cmd, []string{"app.py", "--port", "8080"}),
		}
		if lbl%2 == 1 {
			rt.Labels = map[string]string{"tier": "web", "owner": fmt.Sprint(lbl)}
		}
		spec, err := ResolveSpec(rt, reg)
		if err != nil {
			t.Logf("ResolveSpec(%+v): %v", rt, err)
			return false
		}
		literal := Spec{Runtime: spec.Runtime, Image: spec.Image, Net: spec.Net}
		return spec.Key() == rt.Key() && literal.Key() == rt.Key()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Repurpose swaps the container's whole spec, cached key included.
func TestRepurposedContainerReportsNewKey(t *testing.T) {
	f := newFixture(t)
	from := f.mustSpec(t, config.Runtime{Image: "python:3.8", Env: []string{"FN=0"}})
	to := f.mustSpec(t, config.Runtime{Image: "node:10", Env: []string{"FN=1"}})
	c := f.mustCreate(t, from)
	if c.Key() != from.Runtime.Key() {
		t.Fatalf("created under key %q, want %q", c.Key(), from.Runtime.Key())
	}
	var err error = errors.New("repurpose callback never ran")
	f.engine.Repurpose(c, to, func(e error) { err = e })
	if e := f.sched.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() != to.Runtime.Key() || c.Key() == from.Runtime.Key() {
		t.Fatalf("repurposed container reports key %q, want %q", c.Key(), to.Runtime.Key())
	}
}

// A key's handle is dense and per engine: specs of one key share it, a
// new key takes the next one, and a spec carried to a second engine is
// resolved there afresh rather than reading the first engine's handle.
func TestKeyOfIsDensePerEngine(t *testing.T) {
	f := newFixture(t)
	a := f.mustSpec(t, config.Runtime{Image: "python:3.8", Env: []string{"FN=0"}})
	again := f.mustSpec(t, config.Runtime{Image: "python:3.8", Env: []string{"FN=0"}})
	b := f.mustSpec(t, config.Runtime{Image: "python:3.8", Env: []string{"FN=1"}})
	if ida, idb := f.engine.KeyOf(a), f.engine.KeyOf(b); ida != 0 || idb != 1 {
		t.Fatalf("first two keys got handles %d and %d, want 0 and 1", ida, idb)
	}
	if id := f.engine.KeyOf(again); id != 0 {
		t.Fatalf("a second spec of the first key got handle %d, want 0", id)
	}
	if id, ok := f.engine.LookupKey(b.Key()); !ok || id != 1 {
		t.Fatalf("LookupKey = %d, %v, want 1, true", id, ok)
	}
	other := newFixture(t)
	if id := other.engine.KeyOf(b); id != 0 {
		t.Fatalf("the second engine's first key got handle %d, want 0", id)
	}
	if id := f.engine.KeyOf(b); id != 1 {
		t.Fatalf("back on the first engine the spec reads handle %d, want 1", id)
	}
	c := f.mustCreate(t, b)
	if id := f.engine.KeyOf(&c.Spec); id != 1 {
		t.Fatalf("the container's spec carries handle %d, want 1", id)
	}
}

// Tally counts a container while it is Available, through every state
// change, and moves it between counts.
func TestTallyFollowsState(t *testing.T) {
	f := newFixture(t)
	app := workload.QRApp(workload.Python)
	c := f.mustCreate(t, pySpec(t, f))
	var first, second int
	c.Tally(&first)
	if first != 1 {
		t.Fatalf("an Available container tallied %d, want 1", first)
	}
	if err := f.engine.Reserve(c); err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("a reserved container tallied %d, want 0", first)
	}
	f.engine.Exec(c, app, func(time.Duration, error) {})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("after its exec the container tallied %d, want 1", first)
	}
	c.Tally(&second)
	if first != 0 || second != 1 {
		t.Fatalf("moved tally = %d, %d, want 0, 1", first, second)
	}
	c.Tally(nil)
	f.engine.Stop(c, nil)
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 0 {
		t.Fatalf("an untallied container still counted: %d", second)
	}
}
