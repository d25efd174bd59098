// Package faults implements a deterministic, seedable fault injector
// for the container engine: the chaos-engineering half of the
// resilience story. The paper's Algorithms 1/2 assume pooled runtimes
// are always reusable; real engines fail creates (registry or resource
// exhaustion), crash mid-exec, hand out corrupted runtimes, and
// occasionally boot an order of magnitude slower than nominal. The
// injector models all four so the gateway's retry / circuit-breaker /
// quarantine machinery can be exercised reproducibly.
//
// Faults are configured per runtime key (substring match on the
// canonical key, first matching rule wins) with optional burst windows
// that multiply the base rates for a span of virtual time — modelling
// correlated failures such as a registry outage. All draws flow through
// seeded rng streams split per fault kind, so a whole chaos experiment
// replays byte-for-byte from one seed.
package faults

import (
	"fmt"
	"strings"
	"time"

	"hotc/internal/container"
	"hotc/internal/rng"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

// Burst is a window of virtual time during which a rule's fault rates
// are multiplied, modelling correlated failure episodes.
type Burst struct {
	// StartSec is the window start, in seconds of virtual time.
	StartSec float64 `json:"startSec"`
	// DurationSec is the window length in seconds.
	DurationSec float64 `json:"durationSec"`
	// Multiplier scales the rule's rates inside the window (default 10).
	Multiplier float64 `json:"multiplier,omitempty"`
}

// contains reports whether the virtual time t falls inside the window.
func (b Burst) contains(t simclock.Time) bool {
	start := time.Duration(b.StartSec * float64(time.Second))
	end := start + time.Duration(b.DurationSec*float64(time.Second))
	return t >= start && t < end
}

// Rule sets fault rates for the runtime keys it matches. Rates are
// probabilities in [0, 1] evaluated independently per operation.
type Rule struct {
	// KeyContains selects runtime keys by substring; empty matches
	// every key. The first matching rule wins.
	KeyContains string `json:"keyContains,omitempty"`
	// CreateFailRate fails container creation (after the boot delay),
	// modelling registry errors and resource exhaustion.
	CreateFailRate float64 `json:"createFailRate,omitempty"`
	// ExecCrashRate fails an execution at admission, modelling a crash
	// of the function process.
	ExecCrashRate float64 `json:"execCrashRate,omitempty"`
	// CorruptRate silently corrupts the container at exec time: the
	// execution succeeds but the runtime is poisoned and fails its next
	// pool health check.
	CorruptRate float64 `json:"corruptRate,omitempty"`
	// SlowStartRate inflates a create's boot latency by SlowStartFactor.
	SlowStartRate float64 `json:"slowStartRate,omitempty"`
	// SlowStartFactor multiplies the nominal boot cost on a slow-start
	// fault (default 5: a 5x latency spike).
	SlowStartFactor float64 `json:"slowStartFactor,omitempty"`
	// Bursts are windows during which all of this rule's rates are
	// multiplied.
	Bursts []Burst `json:"bursts,omitempty"`
}

// Config is the JSON-configurable injector specification, embeddable in
// scenario specs.
type Config struct {
	// Seed drives the injector's rng streams (0 is a valid fixed seed).
	Seed int64 `json:"seed,omitempty"`
	// Rules are evaluated first-match-wins against each runtime key.
	Rules []Rule `json:"rules"`
}

// Validate checks rates and windows.
func (c Config) Validate() error {
	for i, r := range c.Rules {
		for _, rate := range []struct {
			name string
			v    float64
		}{
			{"createFailRate", r.CreateFailRate},
			{"execCrashRate", r.ExecCrashRate},
			{"corruptRate", r.CorruptRate},
			{"slowStartRate", r.SlowStartRate},
		} {
			if rate.v < 0 || rate.v > 1 {
				return fmt.Errorf("faults: rule %d %s = %v out of [0, 1]", i, rate.name, rate.v)
			}
		}
		if r.SlowStartFactor < 0 {
			return fmt.Errorf("faults: rule %d slowStartFactor = %v is negative", i, r.SlowStartFactor)
		}
		for j, b := range r.Bursts {
			if b.StartSec < 0 || b.DurationSec <= 0 {
				return fmt.Errorf("faults: rule %d burst %d needs startSec >= 0 and durationSec > 0", i, j)
			}
			if b.Multiplier < 0 {
				return fmt.Errorf("faults: rule %d burst %d multiplier = %v is negative", i, j, b.Multiplier)
			}
		}
	}
	return nil
}

// Stats counts injected faults per kind.
type Stats struct {
	// CreateFails counts failed container creations.
	CreateFails int
	// ExecCrashes counts failed executions.
	ExecCrashes int
	// Corruptions counts silently poisoned containers.
	Corruptions int
	// SlowStarts counts inflated boots.
	SlowStarts int
}

// Total is the number of injected faults of any kind.
func (s Stats) Total() int {
	return s.CreateFails + s.ExecCrashes + s.Corruptions + s.SlowStarts
}

// Injector draws fault decisions against a Config. Plug it into an
// engine with Attach; its HealthCheck method slots into
// pool.Options.HealthCheck so corrupted runtimes are quarantined on
// acquire instead of being reused.
type Injector struct {
	rules []Rule
	now   func() simclock.Time
	eng   *container.Engine

	// Independent streams per fault kind: adding draws of one kind
	// never perturbs the sequence of another.
	create, exec, corrupt, slow *rng.Source

	corrupted map[string]bool
	stats     Stats
}

// New builds an injector for the config. now supplies virtual time for
// burst windows (pass the scheduler's Now).
func New(cfg Config, now func() simclock.Time) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if now == nil {
		return nil, fmt.Errorf("faults: New requires a clock")
	}
	root := rng.New(cfg.Seed)
	return &Injector{
		rules:     cfg.Rules,
		now:       now,
		create:    root.Split("create-fail"),
		exec:      root.Split("exec-crash"),
		corrupt:   root.Split("corrupt"),
		slow:      root.Split("slow-start"),
		corrupted: make(map[string]bool),
	}, nil
}

// Attach installs the injector into the engine's fault hooks. Any
// previously installed hooks are replaced.
func (in *Injector) Attach(eng *container.Engine) {
	if eng == nil {
		panic("faults: Attach requires an engine")
	}
	in.eng = eng
	eng.CreateHook = in.onCreate
	eng.ExecHook = in.onExec
	eng.StartDelayHook = in.startDelay
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// rule returns the first rule matching the key, or nil.
func (in *Injector) rule(key string) *Rule {
	for i := range in.rules {
		if in.rules[i].KeyContains == "" || strings.Contains(key, in.rules[i].KeyContains) {
			return &in.rules[i]
		}
	}
	return nil
}

// scale is the burst multiplier in effect for the rule right now.
func (in *Injector) scale(r *Rule) float64 {
	now := in.now()
	for _, b := range r.Bursts {
		if b.contains(now) {
			if b.Multiplier == 0 {
				return 10
			}
			return b.Multiplier
		}
	}
	return 1
}

// rate resolves one of a rule's base rates to the effective probability
// at the current virtual time, clamped to [0, 1].
func (in *Injector) rate(key string, pick func(*Rule) float64) float64 {
	r := in.rule(key)
	if r == nil {
		return 0
	}
	p := pick(r) * in.scale(r)
	if p > 1 {
		p = 1
	}
	return p
}

// onCreate is the engine CreateHook: fail creation at the effective
// create-fail rate.
func (in *Injector) onCreate(spec *container.Spec) error {
	if in.create.Bernoulli(in.rate(string(spec.Key()), func(r *Rule) float64 { return r.CreateFailRate })) {
		in.stats.CreateFails++
		return fmt.Errorf("faults: injected create failure for %s", spec.Key())
	}
	return nil
}

// onExec is the engine ExecHook: crash the execution at the exec-crash
// rate, or silently poison the container at the corrupt rate.
func (in *Injector) onExec(c *container.Container, _ workload.App) error {
	key := string(c.Key())
	if in.exec.Bernoulli(in.rate(key, func(r *Rule) float64 { return r.ExecCrashRate })) {
		in.stats.ExecCrashes++
		return fmt.Errorf("faults: injected exec crash in %s", c.ID)
	}
	if in.corrupt.Bernoulli(in.rate(key, func(r *Rule) float64 { return r.CorruptRate })) {
		if !in.corrupted[c.ID] {
			in.corrupted[c.ID] = true
			in.stats.Corruptions++
		}
	}
	return nil
}

// startDelay is the engine StartDelayHook: inflate the boot cost at the
// slow-start rate.
func (in *Injector) startDelay(spec *container.Spec) time.Duration {
	key := string(spec.Key())
	r := in.rule(key)
	if r == nil {
		return 0
	}
	if !in.slow.Bernoulli(in.rate(key, func(r *Rule) float64 { return r.SlowStartRate })) {
		return 0
	}
	in.stats.SlowStarts++
	factor := r.SlowStartFactor
	if factor <= 0 {
		factor = 5
	}
	if factor <= 1 || in.eng == nil {
		return 0
	}
	return time.Duration(float64(in.eng.StartCost(spec)) * (factor - 1))
}

// HealthCheck reports whether the container is fit for reuse; it slots
// into pool.Options.HealthCheck. A corrupted container fails exactly
// once — the pool quarantines (stops) it on failure, so the poison mark
// is consumed here.
func (in *Injector) HealthCheck(c *container.Container) error {
	if in.corrupted[c.ID] {
		delete(in.corrupted, c.ID)
		return fmt.Errorf("faults: container %s is corrupted", c.ID)
	}
	return nil
}
