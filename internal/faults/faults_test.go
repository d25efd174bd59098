package faults

import (
	"strings"
	"testing"
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
	inj   *Injector
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(costmodel.Server()), reg, image.NewCache(), nil)
	inj, err := New(cfg, sched.Now)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(eng)
	return &fixture{sched: sched, eng: eng, reg: reg, inj: inj}
}

func (f *fixture) spec(t *testing.T, image string) *container.Spec {
	t.Helper()
	s, err := container.ResolveSpec(config.Runtime{Image: image}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// create drives one engine Create to completion.
func (f *fixture) create(t *testing.T, spec *container.Spec) (*container.Container, error) {
	t.Helper()
	var ctr *container.Container
	var cerr error
	done := false
	f.eng.Create(spec, func(c *container.Container, err error) {
		ctr, cerr, done = c, err, true
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("create never completed")
	}
	return ctr, cerr
}

// exec drives one engine Exec to completion.
func (f *fixture) exec(t *testing.T, c *container.Container, app workload.App) error {
	t.Helper()
	var eerr error
	done := false
	f.eng.Exec(c, app, func(_ time.Duration, err error) {
		eerr, done = err, true
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("exec never completed")
	}
	return eerr
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Rules: []Rule{{CreateFailRate: -0.1}}},
		{Rules: []Rule{{ExecCrashRate: 1.5}}},
		{Rules: []Rule{{SlowStartFactor: -1}}},
		{Rules: []Rule{{Bursts: []Burst{{StartSec: -1, DurationSec: 10}}}}},
		{Rules: []Rule{{Bursts: []Burst{{StartSec: 0, DurationSec: 0}}}}},
		{Rules: []Rule{{Bursts: []Burst{{StartSec: 0, DurationSec: 5, Multiplier: -2}}}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config validated but should not have", i)
		}
	}
	if _, err := New(Config{Rules: []Rule{{CreateFailRate: 2}}}, simclock.New().Now); err == nil {
		t.Error("New accepted an invalid config")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("New accepted a nil clock")
	}
}

func TestCreateFailRateObserved(t *testing.T) {
	f := newFixture(t, Config{Seed: 3, Rules: []Rule{{CreateFailRate: 0.3}}})
	spec := f.spec(t, "python:3.8")
	fails := 0
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := f.create(t, spec); err != nil {
			fails++
		}
	}
	if fails != f.inj.Stats().CreateFails {
		t.Fatalf("observed %d fails but stats say %d", fails, f.inj.Stats().CreateFails)
	}
	// Loose band around the expected 150: the draw is seeded, so this
	// is a determinism check as much as a distribution check.
	if fails < 100 || fails > 200 {
		t.Fatalf("fails = %d out of %d, want roughly 30%%", fails, n)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, string) {
		f := newFixture(t, Config{Seed: 11, Rules: []Rule{{
			CreateFailRate: 0.2, ExecCrashRate: 0.1, CorruptRate: 0.1,
		}}})
		spec := f.spec(t, "python:3.8")
		app := workload.QRApp(workload.Python)
		var outcome strings.Builder
		for i := 0; i < 100; i++ {
			c, err := f.create(t, spec)
			if err != nil {
				outcome.WriteByte('C')
				continue
			}
			if err := f.exec(t, c, app); err != nil {
				outcome.WriteByte('X')
			} else {
				outcome.WriteByte('.')
			}
		}
		return f.inj.Stats(), outcome.String()
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 || o1 != o2 {
		t.Fatalf("same seed diverged:\n%+v %q\n%+v %q", s1, o1, s2, o2)
	}
	if s1.Total() == 0 {
		t.Fatal("no faults injected at 20%/10%/10% over 100 iterations")
	}
}

func TestRuleKeyMatchFirstWins(t *testing.T) {
	f := newFixture(t, Config{Seed: 5, Rules: []Rule{
		{KeyContains: "python", CreateFailRate: 1},
		{CreateFailRate: 0}, // catch-all: no faults
	}})
	pySpec := f.spec(t, "python:3.8")
	goSpec := f.spec(t, "golang:1.12")
	if _, err := f.create(t, pySpec); err == nil {
		t.Fatal("python create should always fail under its rule")
	}
	if _, err := f.create(t, goSpec); err != nil {
		t.Fatalf("golang create hit the python rule: %v", err)
	}
	if got := f.inj.Stats().CreateFails; got != 1 {
		t.Fatalf("CreateFails = %d, want 1", got)
	}
}

func TestNoRuleMeansNoFaults(t *testing.T) {
	f := newFixture(t, Config{Seed: 5, Rules: []Rule{{KeyContains: "nomatch", CreateFailRate: 1}}})
	spec := f.spec(t, "python:3.8")
	for i := 0; i < 20; i++ {
		if _, err := f.create(t, spec); err != nil {
			t.Fatalf("create %d failed with no matching rule: %v", i, err)
		}
	}
}

func TestBurstWindowMultipliesRate(t *testing.T) {
	// Base rate 0.05 multiplied by 20 inside the window = certain
	// failure; outside the window the seeded draws at 5% may or may
	// not fire, so only the window behaviour is asserted exactly.
	f := newFixture(t, Config{Seed: 9, Rules: []Rule{{
		CreateFailRate: 0.05,
		Bursts:         []Burst{{StartSec: 100, DurationSec: 50, Multiplier: 20}},
	}}})
	spec := f.spec(t, "python:3.8")
	f.sched.Sleep(110 * time.Second) // inside the window
	for i := 0; i < 10; i++ {
		if _, err := f.create(t, spec); err == nil {
			t.Fatalf("create %d succeeded inside a 100%% burst window", i)
		}
	}
	f.sched.Sleep(60 * time.Second) // past the window
	failsBefore := f.inj.Stats().CreateFails
	ok := 0
	for i := 0; i < 50; i++ {
		if _, err := f.create(t, spec); err == nil {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("every create failed after the burst window at a 5% base rate")
	}
	if f.inj.Stats().CreateFails-failsBefore > 15 {
		t.Fatalf("%d/50 fails after the window, want about 5%%", f.inj.Stats().CreateFails-failsBefore)
	}
}

func TestBurstDefaultMultiplier(t *testing.T) {
	b := Burst{StartSec: 0, DurationSec: 10}
	if !b.contains(5 * time.Second) {
		t.Fatal("burst should contain t=5s")
	}
	if b.contains(10 * time.Second) {
		t.Fatal("burst end is exclusive")
	}
	f := newFixture(t, Config{Seed: 1, Rules: []Rule{{
		CreateFailRate: 0.1,
		Bursts:         []Burst{{StartSec: 0, DurationSec: 1e6}}, // multiplier omitted
	}}})
	spec := f.spec(t, "python:3.8")
	// 0.1 * default 10 = certain failure.
	if _, err := f.create(t, spec); err == nil {
		t.Fatal("create succeeded; default burst multiplier should be 10")
	}
}

func TestCorruptionCaughtByHealthCheckOnce(t *testing.T) {
	f := newFixture(t, Config{Seed: 2, Rules: []Rule{{CorruptRate: 1}}})
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)
	c, err := f.create(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.exec(t, c, app); err != nil {
		t.Fatalf("corruption must be silent at exec time: %v", err)
	}
	if !f.inj.corrupted[c.ID] {
		t.Fatal("container not marked corrupted after exec at rate 1")
	}
	if f.inj.Stats().Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", f.inj.Stats().Corruptions)
	}
	if err := f.inj.HealthCheck(c); err == nil {
		t.Fatal("health check passed a corrupted container")
	}
	// The poison mark is consumed by the failing check (the container
	// is quarantined and stopped by the pool).
	if err := f.inj.HealthCheck(c); err != nil {
		t.Fatalf("second health check should pass: %v", err)
	}
}

func TestSlowStartInflatesBoot(t *testing.T) {
	slow := newFixture(t, Config{Seed: 4, Rules: []Rule{{SlowStartRate: 1, SlowStartFactor: 5}}})
	fast := newFixture(t, Config{Seed: 4, Rules: []Rule{}})
	spec := slow.spec(t, "python:3.8")
	start := slow.sched.Now()
	if _, err := slow.create(t, spec); err != nil {
		t.Fatal(err)
	}
	slowBoot := slow.sched.Now() - start
	fstart := fast.sched.Now()
	if _, err := fast.create(t, fast.spec(t, "python:3.8")); err != nil {
		t.Fatal(err)
	}
	fastBoot := fast.sched.Now() - fstart
	if slow.inj.Stats().SlowStarts != 1 {
		t.Fatalf("SlowStarts = %d, want 1", slow.inj.Stats().SlowStarts)
	}
	if slowBoot < 4*fastBoot {
		t.Fatalf("slow boot %v not ~5x the nominal %v", slowBoot, fastBoot)
	}
}

func TestExecCrashLeavesContainerAvailable(t *testing.T) {
	f := newFixture(t, Config{Seed: 6, Rules: []Rule{{ExecCrashRate: 1}}})
	spec := f.spec(t, "python:3.8")
	app := workload.QRApp(workload.Python)
	c, err := f.create(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.exec(t, c, app); err == nil {
		t.Fatal("exec should crash at rate 1")
	}
	if c.State() != container.Available {
		t.Fatalf("state after crashed exec = %v, want Available", c.State())
	}
	if f.inj.Stats().ExecCrashes != 1 {
		t.Fatalf("ExecCrashes = %d, want 1", f.inj.Stats().ExecCrashes)
	}
}
