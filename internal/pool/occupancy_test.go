package pool

import (
	"math"
	"math/rand"
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

// The engine counts its Available containers and the pool its live ones,
// and each key's available ones, instead of walking them. Under any
// sequence of engine and pool operations — including ones callers never
// issue, such as stopping a container mid-exec — each count must give
// exactly what the walk gives: the idle overheads bit for bit, Pool.Live
// and every key's available count to the container.
func TestEngineOccupancyMatchesScan(t *testing.T) {
	check := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		sched := simclock.New()
		reg := image.StandardCatalog()
		cm := costmodel.New(costmodel.Server())
		eng := container.NewEngine(sched, cm, reg, image.NewCache(), nil)
		p := New(eng, Options{MaxLive: 6, EnableSharing: true, EnableRelaxed: true})
		var specs []*container.Spec
		for _, rt := range []config.Runtime{{Image: "python:3.8"}, {Image: "python:3.8", Env: []string{"A=1"}}, {Image: "node:10"}} {
			s, err := container.ResolveSpec(rt, reg)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
		app := workload.QRApp(workload.Python)
		var seen []*container.Container // every container ever created, stopped ones too
		note := func(c *container.Container) {
			if c != nil {
				seen = append(seen, c)
			}
		}
		pick := func() *container.Container {
			if len(seen) == 0 {
				return nil
			}
			return seen[rnd.Intn(len(seen))]
		}
		spec := func() *container.Spec { return specs[rnd.Intn(len(specs))] }
		ignore := func(error) {}

		for op := 0; op < 300; op++ {
			c := pick()
			switch k := rnd.Intn(14); {
			case k == 0:
				eng.Create(spec(), func(c *container.Container, _ error) { note(c) })
			case k == 1 && c != nil:
				_ = eng.Reserve(c) // refused unless Available
			case k == 2 && c != nil:
				eng.Unreserve(c)
			case k == 3 && c != nil:
				eng.Exec(c, app, func(time.Duration, error) {})
			case k == 4 && c != nil:
				eng.CleanVolume(c, ignore)
			case k == 5 && c != nil:
				eng.Repurpose(c, spec(), ignore)
			case k == 6 && c != nil:
				eng.Warmup(c, app, ignore)
			case k == 7 && c != nil:
				eng.Stop(c, nil)
			case k == 8:
				p.Acquire(spec(), func(c *container.Container, _ bool, _ config.Delta, _ error) { note(c) })
			case k == 9 && c != nil:
				p.Release(c, nil)
			case k == 10:
				p.Prewarm(spec(), app, 1+rnd.Intn(2), nil)
			case k == 11:
				p.Retire(spec(), 1)
			case k == 12 && c != nil:
				p.Quarantine(c)
			default:
				for n := rnd.Intn(4); n > 0 && sched.Step(); n-- {
				}
			}

			idleMem, idleCPU := 0.0, 0.0
			for _, c := range eng.LiveContainers() {
				if c.State() == container.Available {
					idleMem += cm.C.IdleContainerMemMB
					idleCPU += cm.C.IdleContainerCPUPct
				}
			}
			live := 0
			for _, k := range p.byKey {
				if k == nil {
					continue
				}
				live += len(k.list)
				avail := 0
				for _, c := range k.list {
					if c.State() == container.Available {
						avail++
					}
				}
				if k.avail != avail {
					t.Logf("seed %d, op %d: key %s counts %d available, its list holds %d", seed, op, k.key, k.avail, avail)
					return false
				}
			}
			if math.Float64bits(eng.IdleOverheadMemMB()) != math.Float64bits(idleMem) ||
				math.Float64bits(eng.IdleOverheadCPUPct()) != math.Float64bits(idleCPU) || p.Live() != live {
				t.Logf("seed %d, op %d: counted mem %v cpu %v live %d, scanned %v, %v, %d",
					seed, op, eng.IdleOverheadMemMB(), eng.IdleOverheadCPUPct(), p.Live(), idleMem, idleCPU, live)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
