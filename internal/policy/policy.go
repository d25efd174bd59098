// Package policy implements the industry reuse strategies the paper
// compares HotC against (§III.B):
//
//   - NoReuse — the default serverless behaviour: every request boots a
//     fresh container and tears it down afterwards.
//   - NewFixedKeepAlive — the AWS Lambda approach: "a fixed keep-alive
//     policy that retains the resources in memory for minutes after
//     function execution" (15 minutes in AWS).
//   - PeriodicWarmup — the Azure Logic approach of "periodically waking
//     up containers to keep warm".
//   - NewHistogram — the Serverless-in-the-Wild style policy of "using
//     different keep-alive values for workloads according to their
//     actual invocation frequency and patterns".
//
// The keep-alives are one pooled provider, KeepAlive, over a kernel
// retention rule (kernel.Fixed, kernel.Histogram) the live gateway's
// janitor applies too. All policies satisfy the faas.Provider
// interface; HotC itself lives in the core package.
package policy

import (
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/kernel"
	"hotc/internal/pool"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

// NoReuse cold-starts every request and stops the container once the
// response is sent — the paper's default/baseline configuration.
type NoReuse struct {
	eng *container.Engine
}

// NewNoReuse returns the cold-start-always policy.
func NewNoReuse(eng *container.Engine) *NoReuse {
	if eng == nil {
		panic("policy: NewNoReuse requires an engine")
	}
	return &NoReuse{eng: eng}
}

// Name implements faas.Provider.
func (n *NoReuse) Name() string { return "default(cold-start)" }

// Acquire implements faas.Provider: always a fresh container.
func (n *NoReuse) Acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	n.eng.Create(spec, func(c *container.Container, err error) {
		if err != nil {
			done(nil, false, config.Delta{}, err)
			return
		}
		if err := n.eng.Reserve(c); err != nil {
			done(nil, false, config.Delta{}, err)
			return
		}
		done(c, false, config.Delta{}, nil)
	})
}

// Complete implements faas.Provider: tear the container down.
func (n *NoReuse) Complete(c *container.Container, _ *container.Spec) {
	n.eng.Stop(c, nil)
}

// Discard implements faas.Provider. A cold-start policy tears every
// container down anyway, suspect or not.
func (n *NoReuse) Discard(c *container.Container, spec *container.Spec) {
	n.Complete(c, spec)
}

// KeepAlive is the pooled provider every keep-alive baseline runs as:
// a runtime goes back to the pool after use and is stopped once it has
// sat idle for its key's window, the kernel retention rule's answer.
type KeepAlive struct {
	name  string
	rule  kernel.Retention
	pool  *pool.Pool
	sched *simclock.Scheduler
}

func newKeepAlive(name string, p *pool.Pool, rule kernel.Retention) *KeepAlive {
	if p == nil {
		panic("policy: a keep-alive requires a pool")
	}
	return &KeepAlive{name: name, rule: rule, pool: p, sched: p.Engine().Scheduler()}
}

// DefaultKeepAlive is the AWS-style window the paper cites ("i.e., 15
// minutes in AWS Lambda").
const DefaultKeepAlive = 15 * time.Minute

// NewFixedKeepAlive returns the fixed-window policy over the pool, AWS
// Lambda's 15-minute one by default: a window ≤ 0 is DefaultKeepAlive.
func NewFixedKeepAlive(p *pool.Pool, window time.Duration) *KeepAlive {
	if window <= 0 {
		window = DefaultKeepAlive
	}
	return newKeepAlive("fixed-keepalive("+window.String()+")", p, kernel.Fixed(window))
}

// NewHistogram returns the adaptive keep-alive policy over the pool,
// kernel.Histogram's window per runtime key.
func NewHistogram(p *pool.Pool) *KeepAlive {
	return newKeepAlive("histogram-keepalive", p, kernel.NewHistogram())
}

// Name implements faas.Provider.
func (k *KeepAlive) Name() string { return k.name }

// Acquire implements faas.Provider, telling the rule of the arrival.
func (k *KeepAlive) Acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	k.rule.Arrive(string(spec.Key()), k.sched.Now())
	k.pool.Acquire(spec, done)
}

// Complete implements faas.Provider: the runtime is pooled and its idle
// check armed.
func (k *KeepAlive) Complete(c *container.Container, spec *container.Spec) {
	k.pool.Release(c, func(error) {
		k.expire(c, string(spec.Key()))
	})
}

// Discard implements faas.Provider: the suspect container is
// quarantined, never re-entering the pool.
func (k *KeepAlive) Discard(c *container.Container, _ *container.Spec) {
	k.pool.Quarantine(c)
}

// expire schedules c's idle check at LastUsedAt + the key's window. If
// c was reused in the meantime the check re-arms itself for the new
// deadline; if it sat idle past the deadline it is stopped. A window
// that never expires arms nothing.
func (k *KeepAlive) expire(c *container.Container, key string) {
	window := k.rule.Window(key)
	if window <= 0 {
		return
	}
	k.sched.After(max(c.LastUsedAt+window-k.sched.Now(), 0), func() {
		switch {
		case c.State() != container.Available:
			// Stopped, or busy: the completion of that execution arms
			// a fresh check.
		case kernel.Expired(k.sched.Now()-c.LastUsedAt, k.rule.Window(key)):
			k.pool.Stop(c)
		default:
			k.expire(c, key) // reused since; sleep again
		}
	})
}

// warmupPeriod is PeriodicWarmup's ping interval.
const warmupPeriod = 5 * time.Minute

// PeriodicWarmup layers scheduled warm-up pings on a fixed keep-alive:
// a pinger per function refreshes idle containers (and boots one if
// none is live) every warmupPeriod, so the keep-alive window never
// lapses — at the price of paying for the pings.
type PeriodicWarmup struct {
	*KeepAlive
	stopped []func()
}

// NewPeriodicWarmup returns the warm-up policy over window, the
// keep-alive window (defaulted when zero).
func NewPeriodicWarmup(p *pool.Pool, window time.Duration) *PeriodicWarmup {
	w := &PeriodicWarmup{KeepAlive: NewFixedKeepAlive(p, window)}
	w.name = "periodic-warmup(" + warmupPeriod.String() + ")"
	return w
}

// StartPinger begins periodic warm-up for one function runtime. Call
// StopPingers to halt all pingers.
func (w *PeriodicWarmup) StartPinger(spec *container.Spec, app workload.App) {
	stop := w.sched.Every(warmupPeriod, func() {
		avail := w.pool.Available(spec)
		if len(avail) == 0 {
			if live, _ := w.pool.Occupancy(spec); live == 0 {
				w.pool.Prewarm(spec, app, 1, nil)
			}
			return
		}
		// Refresh idle containers so the keep-alive window restarts —
		// the simulated equivalent of invoking the function with a
		// no-op warm-up request.
		now := w.sched.Now()
		for _, c := range avail {
			c.LastUsedAt = now
		}
	})
	w.stopped = append(w.stopped, stop)
}

// StopPingers halts every pinger started on this policy.
func (w *PeriodicWarmup) StopPingers() {
	for _, stop := range w.stopped {
		stop()
	}
	w.stopped = nil
}
