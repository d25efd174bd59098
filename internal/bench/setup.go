package bench

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/core"
	"hotc/internal/costmodel"
	"hotc/internal/faas"
	"hotc/internal/faults"
	"hotc/internal/host"
	"hotc/internal/image"
	"hotc/internal/policy"
	"hotc/internal/pool"
	"hotc/internal/rng"
	"hotc/internal/simclock"
	"hotc/internal/trace"
	"hotc/internal/workload"
)

// PolicyKind selects the runtime-management strategy under test.
type PolicyKind string

// The policies every experiment can run under.
const (
	PolicyCold      PolicyKind = "default"
	PolicyHotC      PolicyKind = "hotc"
	PolicyKeepAlive PolicyKind = "keepalive"
	PolicyWarmup    PolicyKind = "warmup"
	PolicyHistogram PolicyKind = "histogram"
)

// Env is a fully wired simulation environment: scheduler, engine,
// gateway, provider and host monitor on one hardware profile.
type Env struct {
	Sched    *simclock.Scheduler
	Engine   *container.Engine
	Registry *image.Registry
	Gateway  *faas.Gateway
	Host     *host.Host
	HotC     *core.HotC       // non-nil only for PolicyHotC
	Faults   *faults.Injector // non-nil only when EnvOptions.Faults is set
	Provider faas.Provider
}

// EnvOptions tune environment construction.
type EnvOptions struct {
	// Profile is the hardware profile (default: server).
	Profile costmodel.Profile
	// Seed drives latency jitter; 0 disables jitter for exact stage
	// accounting.
	Seed int64
	// KeepAliveWindow configures PolicyKeepAlive (default 15m).
	KeepAliveWindow time.Duration
	// WarmupPeriod configures PolicyWarmup (default 5m).
	WarmupPeriod time.Duration
	// HotC options (control interval etc.).
	Core core.Options
	// PrePull warms the image layer cache for all catalog images,
	// matching the paper's testbed where "the images were stored
	// locally" (§V.A).
	PrePull bool
	// Constants overrides the cost-model constants (nil = defaults);
	// used by ablations such as the contention study.
	Constants *costmodel.Constants
	// Faults attaches a deterministic fault injector to the engine and
	// a health check to the runtime pool (chaos experiments).
	Faults *faults.Config
}

// NewEnv builds an environment running the given policy.
func NewEnv(kind PolicyKind, opts EnvOptions) *Env {
	prof := opts.Profile
	if prof.Name == "" {
		prof = costmodel.Server()
	}
	sched := simclock.New()
	reg := image.StandardCatalog()
	cache := image.NewCache()
	var jit *rng.Source
	if opts.Seed != 0 {
		jit = rng.New(opts.Seed)
	}
	cm := costmodel.New(prof)
	if opts.Constants != nil {
		cm = costmodel.NewWith(*opts.Constants, prof)
	}
	eng := container.NewEngine(sched, cm, reg, cache, jit)
	if opts.PrePull {
		for _, ref := range reg.Refs() {
			im, err := reg.Lookup(ref)
			if err == nil {
				cache.Admit(im)
			}
		}
	}

	env := &Env{Sched: sched, Engine: eng, Registry: reg, Host: host.New(eng)}

	var health func(*container.Container) error
	if opts.Faults != nil {
		inj, err := faults.New(*opts.Faults, sched.Now)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		inj.Attach(eng)
		env.Faults = inj
		health = inj.HealthCheck
	}

	var p *pool.Pool
	switch kind {
	case PolicyCold:
		env.Provider = policy.NewNoReuse(eng)
	case PolicyHotC:
		coreOpts := opts.Core
		coreOpts.Pool.MemUsedPct = env.Host.UsedMemPct
		coreOpts.Pool.HealthCheck = health
		h := core.New(eng, coreOpts)
		h.Start()
		env.HotC = h
		env.Provider = h
	case PolicyKeepAlive:
		p = pool.New(eng, pool.Options{MemUsedPct: env.Host.UsedMemPct, HealthCheck: health})
		env.Provider = policy.NewFixedKeepAlive(p, opts.KeepAliveWindow)
	case PolicyWarmup:
		p = pool.New(eng, pool.Options{MemUsedPct: env.Host.UsedMemPct, HealthCheck: health})
		env.Provider = policy.NewPeriodicWarmup(p, opts.WarmupPeriod, opts.KeepAliveWindow)
	case PolicyHistogram:
		p = pool.New(eng, pool.Options{MemUsedPct: env.Host.UsedMemPct, HealthCheck: health})
		env.Provider = policy.NewHistogram(p)
	default:
		panic(fmt.Sprintf("bench: unknown policy %q", kind))
	}
	env.Gateway = faas.NewGateway(eng, env.Provider)
	env.instrument(p)
	return env
}

// Deploy registers a function at the gateway (and with HotC's
// controller when running HotC).
func (e *Env) Deploy(name string, rt config.Runtime, app workload.App) error {
	fn := faas.Function{Name: name, Runtime: rt, App: app}
	resolver := faas.ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
		return container.ResolveSpec(rt, e.Registry)
	})
	if err := e.Gateway.Deploy(fn, resolver); err != nil {
		return err
	}
	spec, _ := e.Gateway.Spec(name)
	if e.HotC != nil {
		return e.HotC.Register(spec, app)
	}
	if w, ok := e.Provider.(*policy.PeriodicWarmup); ok {
		w.StartPinger(spec, app)
	}
	return nil
}

// Replay runs a request schedule against the gateway.
func (e *Env) Replay(schedule []trace.Request, classFn func(int) string) ([]faas.Result, error) {
	return faas.Run(e.Gateway, schedule, classFn)
}

// Close stops background machinery (HotC's controller) so the
// scheduler can drain.
func (e *Env) Close() {
	if e.HotC != nil {
		e.HotC.Stop()
	}
	if w, ok := e.Provider.(*policy.PeriodicWarmup); ok {
		w.StopPingers()
	}
}

// meanTotalMS computes the mean end-to-end latency in milliseconds of
// the successful results, optionally filtered.
func meanTotalMS(results []faas.Result, keep func(faas.Result) bool) float64 {
	sum, n := 0.0, 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if keep != nil && !keep(r) {
			continue
		}
		sum += float64(r.Timestamps.Total()) / float64(time.Millisecond)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// singleClass maps every request class to one function name.
func singleClass(name string) func(int) string {
	return func(int) string { return name }
}
