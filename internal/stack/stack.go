// Package stack wires the simulated single-host deployment — virtual
// clock, container engine over an image catalog and layer cache, host
// monitor, fault injector, runtime pool, runtime-management policy and
// OpenFaaS-style gateway — exactly once. The public Simulation, the
// figure environments of internal/bench and every node of
// internal/cluster are this stack, so a signal wired here (the memory
// threshold, the health check, the instruments) is wired for all of
// them.
package stack

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
	"hotc/internal/obs"
	"hotc/internal/policy"
	"hotc/internal/pool"
	"hotc/internal/rng"
	"hotc/internal/simclock"
)

// Policy selects the runtime-management strategy.
type Policy string

// HotC plus the industry baselines of §III.B.
const (
	HotC      Policy = "hotc"
	Cold      Policy = "cold"
	KeepAlive Policy = "keepalive"
	Warmup    Policy = "warmup"
	Histogram Policy = "histogram"
)

// Options are what the callers of New vary.
type Options struct {
	// Sched is the virtual clock to run on; nil gives the stack its own.
	// Cluster nodes share one.
	Sched *simclock.Scheduler
	// Profile is the hardware profile (default: server).
	Profile costmodel.Profile
	// Constants overrides the cost-model constants (nil = defaults);
	// used by ablations such as the contention study.
	Constants *costmodel.Constants
	// Seed drives latency jitter; 0 means a noiseless engine, for exact
	// stage accounting.
	Seed int64
	// PrePull admits every catalog image into the layer cache, matching
	// the paper's testbed where "the images were stored locally" (§V.A).
	PrePull bool
	// Policy is the strategy to run (default HotC).
	Policy Policy
	// KeepAliveWindow is the KeepAlive/Warmup window (default 15m) and
	// WarmupPeriod the Warmup ping interval (default 5m).
	KeepAliveWindow, WarmupPeriod time.Duration
	// Core configures the HotC controller; Core.Pool configures the pool
	// of whichever policy runs. Pool.MemUsedPct and Pool.HealthCheck are
	// set here, from the stack's own host and injector.
	Core core.Options
	// Faults, when non-nil, attaches a deterministic fault injector to
	// the engine and its health check to the pool.
	Faults *faults.Config
	// Metrics and Tracer, when non-nil, instrument the gateway and the
	// pool (and the controller under HotC).
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Stack is one wired deployment.
type Stack struct {
	Sched    *simclock.Scheduler
	Engine   *container.Engine
	Registry *image.Registry
	Host     *host.Host
	Faults   *faults.Injector // nil without Options.Faults
	Pool     *pool.Pool       // nil under Cold, which keeps no runtimes
	HotC     *core.HotC       // non-nil only under HotC
	Provider faas.Provider
	Gateway  *faas.Gateway
}

// New wires a stack. The order is load-bearing: the host before the
// pool so the memory signal exists, the injector before the pool so the
// health check exists, the instruments last so they cover whatever the
// policy built.
func New(o Options) (*Stack, error) {
	s := &Stack{Sched: o.Sched, Registry: image.StandardCatalog()}
	if s.Sched == nil {
		s.Sched = simclock.New()
	}
	prof := o.Profile
	if prof.Name == "" {
		prof = costmodel.Server()
	}
	cm := costmodel.New(prof)
	if o.Constants != nil {
		cm = costmodel.NewWith(*o.Constants, prof)
	}
	var jit *rng.Source
	if o.Seed != 0 {
		jit = rng.New(o.Seed)
	}
	cache := image.NewCache()
	s.Engine = container.NewEngine(s.Sched, cm, s.Registry, cache, jit)
	if o.PrePull {
		for _, ref := range s.Registry.Refs() {
			if im, err := s.Registry.Lookup(ref); err == nil {
				cache.Admit(im)
			}
		}
	}
	s.Host = host.New(s.Engine)

	// The paper's 80 % memory threshold (§IV.B) reads this host.
	o.Core.Pool.MemUsedPct = s.Host.UsedMemPct
	if o.Faults != nil {
		inj, err := faults.New(*o.Faults, s.Sched.Now)
		if err != nil {
			return nil, err
		}
		inj.Attach(s.Engine)
		s.Faults = inj
		// Corrupted containers are caught at the pool boundary: the
		// health check fails them on acquire and they are quarantined.
		o.Core.Pool.HealthCheck = inj.HealthCheck
	}

	switch o.Policy {
	case "", HotC:
		s.HotC = core.New(s.Engine, o.Core)
		s.HotC.Start()
		s.Pool, s.Provider = s.HotC.Pool(), s.HotC
	case Cold:
		s.Provider = policy.NewNoReuse(s.Engine)
	case KeepAlive:
		s.Pool = pool.New(s.Engine, o.Core.Pool)
		s.Provider = policy.NewFixedKeepAlive(s.Pool, o.KeepAliveWindow)
	case Warmup:
		s.Pool = pool.New(s.Engine, o.Core.Pool)
		s.Provider = policy.NewPeriodicWarmup(s.Pool, o.WarmupPeriod, o.KeepAliveWindow)
	case Histogram:
		s.Pool = pool.New(s.Engine, o.Core.Pool)
		s.Provider = policy.NewHistogram(s.Pool)
	default:
		return nil, fmt.Errorf("unknown policy %q", o.Policy)
	}
	s.Gateway = faas.NewGateway(s.Engine, s.Provider)

	if o.Metrics != nil {
		s.Gateway.Instrument(o.Metrics)
		if s.HotC != nil {
			s.HotC.Instrument(o.Metrics) // covers its pool
		} else if s.Pool != nil {
			s.Pool.Instrument(o.Metrics)
		}
	}
	if o.Tracer != nil {
		s.Gateway.Trace(o.Tracer)
	}
	return s, nil
}

// Deploy registers a function at the gateway, with HotC's controller
// when it runs, and starts its pinger under Warmup.
func (s *Stack) Deploy(fn faas.Function) error {
	resolver := faas.ResolverFunc(func(rt config.Runtime) (container.Spec, error) {
		return container.ResolveSpec(rt, s.Registry)
	})
	if err := s.Gateway.Deploy(fn, resolver); err != nil {
		return err
	}
	spec, _ := s.Gateway.Spec(fn.Name)
	if s.HotC != nil {
		return s.HotC.Register(spec, fn.App)
	}
	if w, ok := s.Provider.(*policy.PeriodicWarmup); ok {
		w.StartPinger(spec, fn.App)
	}
	return nil
}

// Close stops the background machinery (HotC's control loop, warm-up
// pingers) so the scheduler can drain.
func (s *Stack) Close() {
	if s.HotC != nil {
		s.HotC.Stop()
	}
	if w, ok := s.Provider.(*policy.PeriodicWarmup); ok {
		w.StopPingers()
	}
}
