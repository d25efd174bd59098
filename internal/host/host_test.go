package host

import (
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
	host  *Host
	reg   *image.Registry
}

func newFixture(t *testing.T, prof costmodel.Profile) *fixture {
	t.Helper()
	sched := simclock.New()
	reg := image.StandardCatalog()
	eng := container.NewEngine(sched, costmodel.New(prof), reg, image.NewCache(), nil)
	return &fixture{sched: sched, eng: eng, host: New(eng), reg: reg}
}

func (f *fixture) create(t *testing.T, img string) *container.Container {
	t.Helper()
	spec, err := container.ResolveSpec(config.Runtime{Image: img}, f.reg)
	if err != nil {
		t.Fatal(err)
	}
	var ctr *container.Container
	f.eng.Create(spec, func(c *container.Container, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ctr = c
	})
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	return ctr
}

func TestBaselineUsage(t *testing.T) {
	f := newFixture(t, costmodel.Server())
	if f.host.UsedMemMB() != costmodel.Server().BaseMemMB {
		t.Fatalf("empty host mem = %v", f.host.UsedMemMB())
	}
	if f.host.UsedCPUPct() != costmodel.Server().BaseCPUPct {
		t.Fatalf("empty host cpu = %v", f.host.UsedCPUPct())
	}
}

// Fig. 15(a): live containers barely move the needle — ten containers
// add <1% CPU and ~0.7 MB each of memory.
func TestFig15aIdleContainerOverhead(t *testing.T) {
	f := newFixture(t, costmodel.Server())
	base := f.host.UsedMemMB()
	baseCPU := f.host.UsedCPUPct()
	for i := 0; i < 10; i++ {
		f.create(t, "alpine:3.9")
	}
	memDelta := f.host.UsedMemMB() - base
	cpuDelta := f.host.UsedCPUPct() - baseCPU
	if memDelta < 6.5 || memDelta > 7.5 {
		t.Fatalf("10 containers added %v MB, want ~7", memDelta)
	}
	if cpuDelta >= 1 {
		t.Fatalf("10 containers added %v%% CPU, want < 1%%", cpuDelta)
	}
}

// Fig. 15(b): a heavy application dominates resource usage while it
// executes; the live container left behind costs almost nothing.
func TestFig15bApplicationLifecycle(t *testing.T) {
	f := newFixture(t, costmodel.Server())
	c := f.create(t, "cassandra:3.11")
	app := workload.Cassandra()

	mon := NewMonitor(f.host, f.sched)
	mon.Start(time.Second)

	idleMem := f.host.UsedMemMB()
	var duringMem, duringCPU float64
	f.eng.Exec(c, app, func(time.Duration, error) {})
	// Sample mid-execution (the exec takes several seconds).
	f.sched.After(3*time.Second, func() {
		duringMem = f.host.UsedMemMB()
		duringCPU = f.host.UsedCPUPct()
	})
	// Run is unusable here: the periodic monitor keeps the event queue
	// non-empty forever, so drive the clock explicitly.
	if err := f.sched.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	mon.Stop()

	if duringMem < idleMem+app.MemMB*0.9 {
		t.Fatalf("during exec mem = %v, want >= idle %v + app %v", duringMem, idleMem, app.MemMB)
	}
	if duringCPU < app.CPUPct {
		t.Fatalf("during exec cpu = %v, want >= %v", duringCPU, app.CPUPct)
	}
	// After the app stops, the OS reclaims its resources but the
	// container stays live and cheap.
	afterMem := f.host.UsedMemMB()
	if afterMem > idleMem+1 {
		t.Fatalf("after exec mem = %v, want back near %v", afterMem, idleMem)
	}
	if mon.CPU.Len() == 0 || mon.Mem.Len() != mon.CPU.Len() {
		t.Fatalf("monitor samples: cpu=%d mem=%d", mon.CPU.Len(), mon.Mem.Len())
	}
	// The CPU series must show the execution bump.
	peak := 0.0
	for i := 0; i < mon.CPU.Len(); i++ {
		peak = max(peak, mon.CPU.At(i).V)
	}
	if peak < app.CPUPct {
		t.Fatalf("monitor never saw the execution: max CPU %v", peak)
	}
}

func TestUsedMemPctOnPi(t *testing.T) {
	f := newFixture(t, costmodel.EdgePi())
	// The Pi has 1 GB; its base footprint alone is a visible fraction.
	pct := f.host.UsedMemPct()
	if pct <= 5 || pct >= 100 {
		t.Fatalf("pi base mem pct = %v", pct)
	}
	// A heavy app saturates the Pi's memory percentage quickly.
	c := f.create(t, "cassandra:3.11")
	f.eng.Exec(c, workload.Cassandra(), func(time.Duration, error) {})
	f.sched.Sleep(time.Second)
	if f.host.UsedMemPct() <= pct {
		t.Fatal("executing app should raise memory pressure")
	}
}

func TestSwapAccounting(t *testing.T) {
	f := newFixture(t, costmodel.EdgePi()) // 1 GB physical
	if pct := f.host.UsedMemPct(); pct >= 80 {
		t.Fatalf("idle host should not be under pressure: %v%% used", pct)
	}
	// A 1.2 GB workload on a 1 GB device spills to swap, which pins the
	// pool's signal past 100 %: pressure under any threshold.
	c := f.create(t, "cassandra:3.11")
	f.eng.Exec(c, workload.Cassandra(), func(time.Duration, error) {})
	f.sched.Sleep(time.Second)
	if pct := f.host.UsedMemPct(); pct <= 100 {
		t.Fatalf("oversubscribed host should swap: mem=%vMB of %vMB (%v%%)",
			f.host.UsedMemMB(), costmodel.EdgePi().TotalMemoryMB, pct)
	}
}

func TestCPUSaturates(t *testing.T) {
	f := newFixture(t, costmodel.Server())
	// Many concurrent heavy executions cannot exceed 100%.
	for i := 0; i < 5; i++ {
		c := f.create(t, "cassandra:3.11")
		f.eng.Exec(c, workload.Cassandra(), func(time.Duration, error) {})
	}
	if f.host.UsedCPUPct() > 100 {
		t.Fatalf("cpu = %v%% > 100%%", f.host.UsedCPUPct())
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorDoubleStartPanics(t *testing.T) {
	f := newFixture(t, costmodel.Server())
	mon := NewMonitor(f.host, f.sched)
	mon.Start(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	mon.Start(time.Second)
}

func TestMonitorStopIdempotent(t *testing.T) {
	f := newFixture(t, costmodel.Server())
	mon := NewMonitor(f.host, f.sched)
	mon.Stop() // not running: no-op
	mon.Start(time.Second)
	f.sched.Sleep(5 * time.Second)
	mon.Stop()
	n := mon.CPU.Len()
	f.sched.Sleep(5 * time.Second)
	if mon.CPU.Len() != n {
		t.Fatal("monitor kept sampling after Stop")
	}
	mon.Stop()
}
