// Package policy implements the industry reuse strategies the paper
// compares HotC against (§III.B):
//
//   - NoReuse — the default serverless behaviour: every request boots a
//     fresh container and tears it down afterwards.
//   - FixedKeepAlive — the AWS Lambda approach: "a fixed keep-alive
//     policy that retains the resources in memory for minutes after
//     function execution" (15 minutes in AWS).
//   - PeriodicWarmup — the Azure Logic approach of "periodically waking
//     up containers to keep warm".
//   - Histogram — the Serverless-in-the-Wild style policy of "using
//     different keep-alive values for workloads according to their
//     actual invocation frequency and patterns".
//
// All policies satisfy the faas.Provider interface; HotC itself lives
// in the core package.
package policy

import (
	"sort"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
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

// expiring is the shared keep-alive machinery: release containers back
// to a pool and stop them once they have sat idle for the policy's
// time-to-live.
type expiring struct {
	pool  *pool.Pool
	sched *simclock.Scheduler
	// ttl returns the keep-alive window for a key at completion time.
	ttl func(key config.Key) time.Duration
}

func (e *expiring) acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	e.pool.Acquire(spec, done)
}

func (e *expiring) complete(c *container.Container, spec *container.Spec) {
	e.pool.Release(c, func(error) {
		e.armExpiry(c, spec.Key())
	})
}

// discard quarantines a suspect container instead of re-pooling it.
func (e *expiring) discard(c *container.Container) {
	e.pool.Quarantine(c)
}

// armExpiry schedules an idle check at LastUsedAt + ttl. If the
// container was reused in the meantime the check re-arms itself for
// the new deadline; if it sits idle past the deadline it is stopped.
func (e *expiring) armExpiry(c *container.Container, key config.Key) {
	ttl := e.ttl(key)
	deadline := c.LastUsedAt + ttl
	now := e.sched.Now()
	var wait time.Duration
	if deadline > now {
		wait = deadline - now
	}
	e.sched.After(wait, func() {
		if c.State() == container.Stopped {
			return
		}
		if c.State() != container.Available {
			// Busy right now; the completion of that execution will
			// arm a fresh expiry.
			return
		}
		if e.sched.Now()-c.LastUsedAt >= e.ttl(key) {
			e.pool.Stop(c)
			return
		}
		e.armExpiry(c, key) // reused since; sleep again
	})
}

// FixedKeepAlive retains containers for a fixed window after their
// last use, like AWS Lambda's 15-minute policy.
type FixedKeepAlive struct {
	expiring
	window time.Duration
}

// DefaultKeepAlive is the AWS-style window the paper cites ("i.e., 15
// minutes in AWS Lambda").
const DefaultKeepAlive = 15 * time.Minute

// NewFixedKeepAlive returns the fixed-window policy over the pool.
func NewFixedKeepAlive(p *pool.Pool, window time.Duration) *FixedKeepAlive {
	if p == nil {
		panic("policy: NewFixedKeepAlive requires a pool")
	}
	if window <= 0 {
		window = DefaultKeepAlive
	}
	f := &FixedKeepAlive{window: window}
	f.pool = p
	f.sched = p.Engine().Scheduler()
	f.ttl = func(config.Key) time.Duration { return f.window }
	return f
}

// Name implements faas.Provider.
func (f *FixedKeepAlive) Name() string { return "fixed-keepalive(" + f.window.String() + ")" }

// Acquire implements faas.Provider.
func (f *FixedKeepAlive) Acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	f.acquire(spec, done)
}

// Complete implements faas.Provider.
func (f *FixedKeepAlive) Complete(c *container.Container, spec *container.Spec) {
	f.complete(c, spec)
}

// Discard implements faas.Provider: the suspect container is
// quarantined, never re-entering the pool.
func (f *FixedKeepAlive) Discard(c *container.Container, _ *container.Spec) {
	f.discard(c)
}

// PeriodicWarmup layers scheduled warm-up pings on a fixed keep-alive:
// a pinger per function refreshes idle containers (and boots one if
// none is live) every period, so the keep-alive window never lapses —
// at the price of paying for the pings.
type PeriodicWarmup struct {
	*FixedKeepAlive
	period  time.Duration
	pings   int
	stopped []func()
}

// NewPeriodicWarmup returns the warm-up policy. period is the ping
// interval; window the keep-alive window (both defaulted when zero).
func NewPeriodicWarmup(p *pool.Pool, period, window time.Duration) *PeriodicWarmup {
	if period <= 0 {
		period = 5 * time.Minute
	}
	return &PeriodicWarmup{
		FixedKeepAlive: NewFixedKeepAlive(p, window),
		period:         period,
	}
}

// Name implements faas.Provider.
func (w *PeriodicWarmup) Name() string { return "periodic-warmup(" + w.period.String() + ")" }

// Pings reports how many warm-up pings have fired.
func (w *PeriodicWarmup) Pings() int { return w.pings }

// StartPinger begins periodic warm-up for one function runtime. Call
// StopPingers to halt all pingers.
func (w *PeriodicWarmup) StartPinger(spec *container.Spec, app workload.App) {
	stop := w.sched.Every(w.period, func() {
		w.pings++
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

// Histogram adapts the keep-alive window per runtime type from the
// observed inter-arrival times of its requests: the window is the 99th
// percentile inter-arrival time with a safety margin, clamped to
// [MinWindow, MaxWindow]. Frequently invoked functions stay warm; rare
// ones release their resources quickly.
type Histogram struct {
	expiring
	// MinWindow and MaxWindow clamp the adaptive keep-alive.
	MinWindow, MaxWindow time.Duration
	// Margin multiplies the p99 inter-arrival time.
	Margin float64

	lastArrival map[config.Key]simclock.Time
	iats        map[config.Key][]time.Duration
}

// NewHistogram returns the adaptive keep-alive policy.
func NewHistogram(p *pool.Pool) *Histogram {
	if p == nil {
		panic("policy: NewHistogram requires a pool")
	}
	h := &Histogram{
		MinWindow:   10 * time.Second,
		MaxWindow:   time.Hour,
		Margin:      1.2,
		lastArrival: make(map[config.Key]simclock.Time),
		iats:        make(map[config.Key][]time.Duration),
	}
	h.pool = p
	h.sched = p.Engine().Scheduler()
	h.ttl = h.windowFor
	return h
}

// Name implements faas.Provider.
func (h *Histogram) Name() string { return "histogram-keepalive" }

// windowFor computes the adaptive window for a key.
func (h *Histogram) windowFor(key config.Key) time.Duration {
	iats := h.iats[key]
	if len(iats) < 2 {
		return h.MaxWindow // not enough signal: be conservative
	}
	sorted := append([]time.Duration(nil), iats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted)-1) * 0.99)
	w := time.Duration(float64(sorted[idx]) * h.Margin)
	if w < h.MinWindow {
		w = h.MinWindow
	}
	if w > h.MaxWindow {
		w = h.MaxWindow
	}
	return w
}

// Acquire implements faas.Provider, recording the arrival for the
// key's inter-arrival histogram.
func (h *Histogram) Acquire(spec *container.Spec, done func(*container.Container, bool, config.Delta, error)) {
	key := spec.Key()
	now := h.sched.Now()
	if last, ok := h.lastArrival[key]; ok {
		h.iats[key] = append(h.iats[key], now-last)
		// Bound history to the most recent observations.
		if len(h.iats[key]) > 4096 {
			h.iats[key] = h.iats[key][len(h.iats[key])-2048:]
		}
	}
	h.lastArrival[key] = now
	h.acquire(spec, done)
}

// Complete implements faas.Provider.
func (h *Histogram) Complete(c *container.Container, spec *container.Spec) {
	h.complete(c, spec)
}

// Discard implements faas.Provider: the suspect container is
// quarantined, never re-entering the pool.
func (h *Histogram) Discard(c *container.Container, _ *container.Spec) {
	h.discard(c)
}
