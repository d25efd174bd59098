// Package pool implements HotC's live container runtime pool (§IV.B):
// a key-value store from canonical runtime configuration to the list
// of live containers of that type, with the paper's three-state
// lifecycle, Algorithm 1 (reuse an available runtime or start a new
// one), Algorithm 2 (clean used containers and return them to the
// pool), the 500-container / 80%-memory caps with oldest-first forced
// eviction, and the §VII relaxed-key reuse extension.
package pool

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/kernel"
	"hotc/internal/obs"
	"hotc/internal/sharing"
	"hotc/internal/workload"
)

// DefaultMaxLive is the paper's live-container cap: "we set the
// maximum number of live containers to 500" (§IV.B).
const DefaultMaxLive = 500

// DefaultMemThresholdPct is the paper's host memory threshold: "the
// memory usage threshold as 80% in the host" (§IV.B).
const DefaultMemThresholdPct = 80

// Options configure a Pool.
type Options struct {
	// MaxLive caps the number of live containers (default 500).
	MaxLive int
	// MemUsedPct, when non-nil, reports current host memory usage in
	// percent; above MemThresholdPct the pool evicts before growing.
	// This stands in for the paper's used_mem/used_swap kernel
	// heuristic.
	MemUsedPct func() float64
	// MemThresholdPct is the eviction threshold (default 80).
	MemThresholdPct float64
	// EnableRelaxed turns on the §VII fuzzy-key reuse extension.
	EnableRelaxed bool
	// EnableSharing turns on Pagurus-style inter-function sharing: when
	// both exact and relaxed matching miss, Acquire leases the oldest
	// idle container of a *different* runtime key, re-keys it for the
	// requested spec (volume wipe + image-layer delta, no engine /
	// network / watchdog setup), and hands it out. Strictly cheaper than
	// a cold start whenever the image delta is small.
	EnableSharing bool
	// ShareIdleGrace excludes containers from lending until they have
	// sat idle this long. A container reused every keep-alive round is
	// part of its function's working set — renting it converts the
	// owner's next warm hit into a full cold start plus re-init, which
	// costs more than the lease saves. Zero disables the gate (any
	// available container qualifies).
	ShareIdleGrace time.Duration
	// Eviction selects the age forced eviction goes by: creation
	// (EvictOldest, the default and the paper's choice) or last use
	// (EvictLRU).
	Eviction EvictionPolicy
	// HealthCheck, when non-nil, vets every pooled container before it
	// is handed out. A container that fails the check is quarantined —
	// stopped and removed from the indexes, never to re-enter the pool —
	// and Acquire moves on to the next candidate (or a cold start).
	HealthCheck func(*container.Container) error
	// Metrics is the registry the pool books every event into — the
	// hotc_pool_* families Stats reads back. nil gives the pool a
	// registry of its own.
	Metrics *obs.Registry
}

// EvictionPolicy orders forced-eviction victims.
type EvictionPolicy int

const (
	// EvictOldest terminates the longest-lived available container —
	// the paper's §IV.B policy.
	EvictOldest EvictionPolicy = iota
	// EvictLRU terminates the least-recently-used available container,
	// which preserves hot long-lived runtimes under skewed traffic.
	EvictLRU
)

// String returns the policy name.
func (e EvictionPolicy) String() string {
	switch e {
	case EvictOldest:
		return "oldest-first"
	case EvictLRU:
		return "lru"
	default:
		return fmt.Sprintf("pool.EvictionPolicy(%d)", int(e))
	}
}

func (o Options) withDefaults() Options {
	if o.MaxLive <= 0 {
		o.MaxLive = DefaultMaxLive
	}
	if o.MemThresholdPct <= 0 {
		o.MemThresholdPct = DefaultMemThresholdPct
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	return o
}

// Stats counts pool activity for reports and tests: a view of the
// pool's hotc_pool_* counters (see Pool.Stats).
type Stats struct {
	// Hits are Acquire calls served by an existing available runtime.
	Hits int
	// RelaxedHits are hits served through the relaxed key.
	RelaxedHits int
	// Misses are Acquire calls that had to start a new container.
	Misses int
	// Evictions counts forced terminations (cap or memory pressure).
	Evictions int
	// Prewarmed counts containers created ahead of demand.
	Prewarmed int
	// Retired counts containers stopped by the controller scale-down
	// or keep-alive expiry.
	Retired int
	// Quarantined counts containers removed because they failed a
	// health check or were reported corrupted after an execution.
	Quarantined int
	// Leases counts containers rented from another runtime key and
	// repurposed instead of a cold start (inter-function sharing).
	Leases int
}

// Pool is the live container runtime pool. Like the engine it is
// single-threaded: all calls must happen on the simulation goroutine.
type Pool struct {
	eng  *container.Engine
	opts Options

	// byKey holds each runtime key's live pool containers and gauges,
	// indexed by the engine's key handle (container.KeyID); nil for a key
	// the pool has not seen. An entry stays once made, so a key's gauges
	// are resolved once.
	byKey []*keyed
	// byRelaxed indexes the same containers by relaxed key, when relaxed
	// matching is on.
	byRelaxed map[config.RelaxedKey][]*container.Container
	// live counts the containers across byKey.
	live int
	// quarantining marks containers whose quarantine teardown is still
	// in flight (Engine.Stop takes simulated time), so a repeated
	// Quarantine call cannot double-count or double-stop them.
	quarantining map[*container.Container]bool

	// obs holds the pool's books, on Options.Metrics.
	obs *instruments
}

// New creates a pool over the engine.
func New(eng *container.Engine, opts Options) *Pool {
	if eng == nil {
		panic("pool: nil engine")
	}
	opts = opts.withDefaults()
	return &Pool{
		eng:          eng,
		opts:         opts,
		byRelaxed:    make(map[config.RelaxedKey][]*container.Container),
		quarantining: make(map[*container.Container]bool),
		obs:          newInstruments(opts.Metrics),
	}
}

// Engine returns the underlying engine.
func (p *Pool) Engine() *container.Engine { return p.eng }

// keyed is one runtime key's share of the pool: its live containers in
// creation order (oldest first, so forced eviction can take the oldest),
// how many of them are Available (each is tallied here while in the
// list, see container.Tally), the completion of their cleanups, and
// their occupancy gauges, resolved when first set.
type keyed struct {
	key      config.Key
	list     []*container.Container
	avail    int
	released func(error)
	gauges   *keyGauges
}

// entryFor returns the entry of the spec's key, making it on first
// sight.
func (p *Pool) entryFor(spec *container.Spec) *keyed {
	id := p.eng.KeyOf(spec)
	for int(id) >= len(p.byKey) {
		p.byKey = append(p.byKey, nil)
	}
	k := p.byKey[id]
	if k == nil {
		k = &keyed{key: spec.Key()}
		k.released = func(error) { p.released(k) }
		p.byKey[id] = k
	}
	return k
}

// entryOf returns the entry of the key c runs under.
func (p *Pool) entryOf(c *container.Container) *keyed { return p.entryFor(&c.Spec) }

// lookup returns the key's entry, nil for a key the pool has not seen.
func (p *Pool) lookup(key config.Key) *keyed {
	if id, ok := p.eng.LookupKey(key); ok && int(id) < len(p.byKey) {
		return p.byKey[id]
	}
	return nil
}

// Live reports the number of live containers tracked by the pool.
func (p *Pool) Live() int { return p.live }

// NumLive reports how many live containers (available or busy) exist
// for the key.
func (p *Pool) NumLive(key config.Key) int {
	if k := p.lookup(key); k != nil {
		return len(k.list)
	}
	return 0
}

// Occupancy reports the spec's live containers and how many of them are
// available (the paper's num_avail) through the spec's key handle.
func (p *Pool) Occupancy(spec *container.Spec) (live, avail int) {
	k := p.entryFor(spec)
	return len(k.list), k.avail
}

// Acquire implements Algorithm 1: find a container with the same
// runtime as a candidate to reuse; if one exists and is available,
// reserve and return it immediately (reused=true, no simulated time
// passes); otherwise start a new container (reused=false, after the
// cold boot delay). The delta result is non-empty only for relaxed
// hits and must be applied by the executor.
func (p *Pool) Acquire(spec *container.Spec, done func(c *container.Container, reused bool, delta config.Delta, err error)) {
	if done == nil {
		panic("pool: Acquire requires a completion callback")
	}
	if c, delta, err := p.Reuse(spec); c != nil || err != nil {
		done(c, c != nil, delta, err)
		return
	}
	p.Fresh(spec, done)
}

// Reuse is Algorithm 1's reuse branch, which takes no simulated time: it
// reserves and returns an available live runtime for spec — of its key,
// or under relaxed matching of its relaxed key, with the delta the
// executor must apply. A nil container and a nil error is a miss, for
// Fresh to serve.
func (p *Pool) Reuse(spec *container.Spec) (*container.Container, config.Delta, error) {
	k := p.entryFor(spec)

	// Exact-key reuse: the first available candidate that passes the
	// health check (unhealthy ones are quarantined as they are found).
	if c := p.firstHealthy(k.list); c != nil {
		if err := p.eng.Reserve(c); err != nil {
			return nil, config.Delta{}, fmt.Errorf("pool: reserving hit: %w", err)
		}
		p.obs.HitsExact.Inc()
		p.sync(k)
		return c, config.Delta{}, nil
	}

	// Relaxed-key reuse (§VII): a container whose namespace-level
	// configuration matches can be adjusted at exec time.
	if p.opts.EnableRelaxed {
		if c := p.firstHealthy(p.byRelaxed[spec.Runtime.Relaxed()]); c != nil {
			if err := p.eng.Reserve(c); err == nil {
				p.obs.hitsRelaxed.Inc()
				p.sync(p.entryOf(c))
				return c, spec.Runtime.DeltaFrom(c.Spec.Runtime), nil
			}
		}
	}
	return nil, config.Delta{}, nil
}

// Fresh is Algorithm 1's other branch, after Reuse missed: it counts the
// miss and starts a new container for spec (reused=false, after the
// cold boot delay) — or, under sharing, first tries renting an idle one
// from another runtime key.
func (p *Pool) Fresh(spec *container.Spec, done func(c *container.Container, reused bool, delta config.Delta, err error)) {
	p.obs.Misses.Inc()
	if p.opts.EnableSharing {
		if c := p.shareCandidate(spec); c != nil {
			p.Lease(c, spec, func(err error) {
				if err != nil {
					done(nil, false, config.Delta{}, err)
					return
				}
				done(c, false, config.Delta{}, nil)
			})
			return
		}
	}
	k := p.entryFor(spec)
	p.evictDownTo(p.opts.MaxLive - 1)
	p.eng.Create(spec, func(c *container.Container, err error) {
		if err != nil {
			done(nil, false, config.Delta{}, err)
			return
		}
		p.admit(c)
		if err := p.eng.Reserve(c); err != nil {
			done(nil, false, config.Delta{}, fmt.Errorf("pool: reserving fresh container: %w", err))
			return
		}
		p.sync(k)
		done(c, false, config.Delta{}, nil)
	})
}

// shareCandidate picks the lender for an inter-function lease with
// sharing.Pick, the rule the live gateway follows too. Every other
// runtime key offers its least-recently-used available container — the
// one most likely to expire unused — as a neutral owner with no
// forecast and a compatible candidate (the simulator has no roles or
// policy yet), in creation-then-ID order, Pick's tie order: the pick
// follows age's total order, not the order keys were first seen.
// Candidates are health-checked like any other hand-out.
func (p *Pool) shareCandidate(spec *container.Spec) *container.Container {
	own := p.entryFor(spec)
	now := p.eng.Scheduler().Now()
	anyone := sharing.Candidate{Shareable: true}
	for {
		var lrus []*container.Container
		for _, e := range p.byKey {
			if e == nil || e == own {
				continue
			}
			var lru *container.Container
			for _, c := range e.list {
				if c.State() == container.Available && (lru == nil || age(c, lru, true) < 0) {
					lru = c
				}
			}
			if lru != nil {
				lrus = append(lrus, lru)
			}
		}
		slices.SortFunc(lrus, func(a, b *container.Container) int { return age(a, b, false) })
		offers := make([]sharing.Offer, len(lrus))
		for i, c := range lrus {
			offers[i] = sharing.Offer{Role: sharing.RoleNeutral, Owner: anyone, Idle: p.entryOf(c).avail, IdleFor: now - c.LastUsedAt}
		}
		i, _ := sharing.Pick(sharing.Policy{}, anyone, offers, p.opts.ShareIdleGrace)
		if i < 0 {
			return nil
		}
		c := lrus[i]
		if p.opts.HealthCheck == nil || p.opts.HealthCheck(c) == nil {
			return c
		}
		p.Quarantine(c)
	}
}

// Lease re-keys an idle container of another runtime key as a zygote
// for spec and reserves it for the caller. The container leaves the
// pool indexes *before* any simulated time passes, so an Acquire
// arriving mid-lease — exact or relaxed — can never be handed the
// container under its former key. On success the container has been
// re-admitted under its new key and reserved; on failure it is
// returned to the pool untouched.
func (p *Pool) Lease(c *container.Container, spec *container.Spec, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	old := p.entryOf(c)
	p.remove(c)
	p.eng.Repurpose(c, spec, func(err error) {
		if err != nil {
			p.admit(c) // spec unchanged on failure: back under the old key
			done(fmt.Errorf("pool: leasing %s from %s: %w", c.ID, old.key, err))
			return
		}
		p.admit(c)
		if rerr := p.eng.Reserve(c); rerr != nil {
			done(fmt.Errorf("pool: reserving leased container: %w", rerr))
			return
		}
		p.obs.leases.Inc()
		p.sync(old)
		p.sync(p.entryFor(spec))
		done(nil)
	})
}

// Release implements Algorithm 2: after the request finishes, clean
// the used container's volume and make it available again
// (num_avail[key]++ happens implicitly when the container returns to
// the Available state). done may be nil; without it the cleanup ends
// in the completion its key's entry bound once.
func (p *Pool) Release(c *container.Container, done func(error)) {
	if c.State() == container.Stopped {
		if done != nil {
			done(fmt.Errorf("pool: releasing stopped container %s", c.ID))
		}
		return
	}
	k := p.entryOf(c)
	if done == nil {
		p.eng.CleanVolume(c, k.released)
		return
	}
	p.eng.CleanVolume(c, func(err error) {
		k.released(err)
		done(err)
	})
}

// released ends a cleanup Release started on one of k's containers.
func (p *Pool) released(k *keyed) {
	// The pool may have grown past its cap while every container was
	// busy (requests must still be served); shrink back now that a
	// container has become evictable.
	p.evictDownTo(p.opts.MaxLive)
	p.sync(k)
}

// Prewarm creates and initialises n containers for the spec/app pair
// ahead of demand (Algorithm 3's scale-up action). done is called once
// per container. Prewarming respects the caps.
func (p *Pool) Prewarm(spec *container.Spec, app workload.App, n int, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	for i := 0; i < n; i++ {
		if !p.roomToGrow() {
			done(fmt.Errorf("pool: at capacity (%d live)", p.Live()))
			continue
		}
		p.evictDownTo(p.opts.MaxLive - 1)
		p.prewarm(spec, app, done)
	}
}

// prewarm creates and initialises one container for Prewarm. Its
// completions are made here, so a control tick that asks for no boots
// allocates nothing.
func (p *Pool) prewarm(spec *container.Spec, app workload.App, done func(error)) {
	p.eng.Create(spec, func(c *container.Container, err error) {
		if err != nil {
			done(err)
			return
		}
		p.admit(c)
		p.obs.Prewarmed.Inc()
		p.eng.Warmup(c, app, func(err error) {
			p.sync(p.entryOf(c))
			done(err)
		})
	})
}

// Retire stops up to n available containers of the spec's key
// (Algorithm 3's scale-down action), oldest first. It returns how many
// stops were initiated.
func (p *Pool) Retire(spec *container.Spec, n int) int {
	stopped := 0
	for _, c := range p.entryFor(spec).list {
		if stopped >= n {
			break
		}
		if c.State() != container.Available {
			continue
		}
		p.remove(c)
		p.obs.retiredScaled.Inc()
		stopped++
		p.eng.Stop(c, nil)
	}
	return stopped
}

// Stop removes a specific available container from the pool and stops
// it (used by keep-alive expiry policies). It reports whether the
// container was stopped; busy or reserved containers are left alone.
func (p *Pool) Stop(c *container.Container) bool {
	if c.State() != container.Available {
		return false
	}
	p.remove(c)
	p.obs.retiredExpired.Inc()
	p.eng.Stop(c, nil)
	return true
}

// Available returns the available containers of the spec's key, oldest
// first (used by warm-up pingers to refresh idle runtimes).
func (p *Pool) Available(spec *container.Spec) []*container.Container {
	var out []*container.Container
	for _, c := range p.entryFor(spec).list {
		if c.State() == container.Available {
			out = append(out, c)
		}
	}
	return out
}

// EvictOldest force-stops the one available container kernel.Reclaim
// picks — by default the oldest by creation (§IV.B: "the oldest live
// container is forcibly terminated and releases the resources"), or
// the least recently used under EvictLRU. The candidates go in in
// creation-then-ID order, Reclaim's tie order, so containers created
// (or last used) at the same instant give way in ID order. It reports
// whether a container was evicted.
func (p *Pool) EvictOldest() bool {
	var avail []*container.Container
	for _, k := range p.byKey {
		if k == nil {
			continue
		}
		for _, c := range k.list {
			if c.State() == container.Available {
				avail = append(avail, c)
			}
		}
	}
	if len(avail) == 0 {
		return false
	}
	slices.SortFunc(avail, func(a, b *container.Container) int { return age(a, b, false) })
	now := p.eng.Scheduler().Now()
	ages := make([]time.Duration, len(avail))
	for i, c := range avail {
		since := c.CreatedAt
		if p.opts.Eviction == EvictLRU {
			since = c.LastUsedAt
		}
		ages[i] = now - since
	}
	victim := avail[kernel.Reclaim(ages, 1)[0]]
	p.remove(victim)
	p.obs.evictions.Inc()
	p.eng.Stop(victim, nil)
	return true
}

// age is the pool's age order over containers, negative when c is the
// older: last use first when lru is set, then creation time, then ID.
// It is total, so a victim or lender picked by it does not depend on
// map iteration order.
func age(c, than *container.Container, lru bool) int {
	if lru && c.LastUsedAt != than.LastUsedAt {
		return cmp.Compare(c.LastUsedAt, than.LastUsedAt)
	}
	return cmp.Or(cmp.Compare(c.CreatedAt, than.CreatedAt), strings.Compare(c.ID, than.ID))
}

// memoryPressure reports whether host memory usage exceeds the
// threshold.
func (p *Pool) memoryPressure() bool {
	if p.opts.MemUsedPct == nil {
		return false
	}
	return p.opts.MemUsedPct() >= p.opts.MemThresholdPct
}

// roomToGrow reports whether a new container may be created after
// evictions.
func (p *Pool) roomToGrow() bool {
	return p.Live() < p.opts.MaxLive || p.anyAvailable()
}

func (p *Pool) anyAvailable() bool {
	for _, k := range p.byKey {
		if k != nil && k.avail > 0 {
			return true
		}
	}
	return false
}

// evictDownTo enforces the live-container cap and the memory threshold
// by evicting with EvictOldest until at most limit containers live and
// memory is under the threshold ("If there exist too many containers
// or fewer resources, the oldest live container is forcibly
// terminated"): MaxLive-1 before a create, MaxLive after a release.
// Everything busy leaves nothing to evict, and the pool stays over.
func (p *Pool) evictDownTo(limit int) {
	for p.Live() > limit || p.memoryPressure() {
		if !p.EvictOldest() {
			return
		}
	}
}

func (p *Pool) firstAvailable(list []*container.Container) *container.Container {
	for _, c := range list {
		if c.State() == container.Available {
			return c
		}
	}
	return nil
}

// firstHealthy returns the first available container that passes the
// configured health check. Candidates that fail are quarantined on the
// spot, so a corrupted runtime is examined at most once. Note the loop
// re-reads the (mutated) list: Quarantine removes the candidate from
// the pool indexes.
func (p *Pool) firstHealthy(list []*container.Container) *container.Container {
	for {
		c := p.firstAvailable(list)
		if c == nil || p.opts.HealthCheck == nil || p.opts.HealthCheck(c) == nil {
			return c
		}
		p.Quarantine(c)
		list = removeFrom(list, c)
	}
}

// Quarantine removes a container from the pool and stops it without
// counting it as a normal retirement: the container is suspected of
// corruption and must never re-enter the keyed store. It is safe to
// call for containers the pool no longer tracks (the stop still
// happens) and is a no-op for already-stopped containers.
func (p *Pool) Quarantine(c *container.Container) {
	if c.State() == container.Stopped || p.quarantining[c] {
		return
	}
	p.quarantining[c] = true
	p.remove(c)
	p.obs.quarantined.Inc()
	p.eng.Unreserve(c) // a reserved holder abandoning a bad container
	p.eng.Stop(c, func() { delete(p.quarantining, c) })
}

// admit registers a container in the pool indexes.
func (p *Pool) admit(c *container.Container) {
	k := p.entryOf(c)
	k.list = append(k.list, c)
	c.Tally(&k.avail)
	p.live++
	if p.opts.EnableRelaxed {
		rk := c.Spec.Runtime.Relaxed()
		p.byRelaxed[rk] = append(p.byRelaxed[rk], c)
	}
	p.sync(k)
}

// remove drops a container from the pool indexes.
func (p *Pool) remove(c *container.Container) {
	k := p.entryOf(c)
	n := len(k.list)
	k.list = removeFrom(k.list, c)
	if len(k.list) < n {
		c.Tally(nil)
		p.live--
	}
	if p.opts.EnableRelaxed {
		rk := c.Spec.Runtime.Relaxed()
		p.byRelaxed[rk] = removeFrom(p.byRelaxed[rk], c)
		if len(p.byRelaxed[rk]) == 0 {
			delete(p.byRelaxed, rk)
		}
	}
	p.sync(k)
}

func removeFrom(list []*container.Container, c *container.Container) []*container.Container {
	for i, x := range list {
		if x == c {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}
