// Package pool implements HotC's live container runtime pool (§IV.B):
// a key-value store from canonical runtime configuration to the list
// of live containers of that type, with the paper's three-state
// lifecycle, Algorithm 1 (reuse an available runtime or start a new
// one), Algorithm 2 (clean used containers and return them to the
// pool), the 500-container / 80%-memory caps with oldest-first forced
// eviction, and the §VII relaxed-key reuse extension.
package pool

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/container"
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
	// Eviction selects the forced-eviction victim order (default
	// EvictOldest, the paper's choice).
	Eviction EvictionPolicy
	// HealthCheck, when non-nil, vets every pooled container before it
	// is handed out. A container that fails the check is quarantined —
	// stopped and removed from the indexes, never to re-enter the pool —
	// and Acquire moves on to the next candidate (or a cold start).
	HealthCheck func(*container.Container) error
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
	return o
}

// Stats counts pool activity for reports and tests.
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
	// Retired counts containers stopped by the controller scale-down.
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

	// byKey tracks live pool containers per canonical key, in creation
	// order (oldest first) so forced eviction can take the oldest.
	byKey map[config.Key][]*container.Container
	// byRelaxed indexes the same containers by relaxed key.
	byRelaxed map[config.RelaxedKey][]*container.Container
	// specs remembers the spec each key was created from, for
	// delta computation on relaxed hits.
	specs map[config.Key]container.Spec
	// quarantining marks containers whose quarantine teardown is still
	// in flight (Engine.Stop takes simulated time), so a repeated
	// Quarantine call cannot double-count or double-stop them.
	quarantining map[*container.Container]bool

	stats Stats

	// obs is the optional metric hookup (see Instrument); nil keeps the
	// seed behaviour.
	obs *instruments
}

// New creates a pool over the engine.
func New(eng *container.Engine, opts Options) *Pool {
	if eng == nil {
		panic("pool: nil engine")
	}
	return &Pool{
		eng:          eng,
		opts:         opts.withDefaults(),
		byKey:        make(map[config.Key][]*container.Container),
		byRelaxed:    make(map[config.RelaxedKey][]*container.Container),
		specs:        make(map[config.Key]container.Spec),
		quarantining: make(map[*container.Container]bool),
	}
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats { return p.stats }

// Engine returns the underlying engine.
func (p *Pool) Engine() *container.Engine { return p.eng }

// Live reports the number of live containers tracked by the pool.
func (p *Pool) Live() int {
	n := 0
	for _, list := range p.byKey {
		n += len(list)
	}
	return n
}

// NumAvail reports how many containers of the given runtime type are
// available for immediate reuse — the paper's num_avail[key].
func (p *Pool) NumAvail(key config.Key) int {
	n := 0
	for _, c := range p.byKey[key] {
		if c.State() == container.Available {
			n++
		}
	}
	return n
}

// NumLive reports how many live containers (available or busy) exist
// for the key.
func (p *Pool) NumLive(key config.Key) int { return len(p.byKey[key]) }

// Keys returns the runtime keys currently present in the pool.
func (p *Pool) Keys() []config.Key {
	keys := make([]config.Key, 0, len(p.byKey))
	for k := range p.byKey {
		if len(p.byKey[k]) > 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// Acquire implements Algorithm 1: find a container with the same
// runtime as a candidate to reuse; if one exists and is available,
// reserve and return it immediately (reused=true, no simulated time
// passes); otherwise start a new container (reused=false, after the
// cold boot delay). The delta result is non-empty only for relaxed
// hits and must be applied by the executor.
func (p *Pool) Acquire(spec container.Spec, done func(c *container.Container, reused bool, delta config.Delta, err error)) {
	if done == nil {
		panic("pool: Acquire requires a completion callback")
	}
	key := spec.Key()

	// Exact-key reuse: the first available candidate that passes the
	// health check (unhealthy ones are quarantined as they are found).
	if c := p.firstHealthy(p.byKey[key]); c != nil {
		if err := p.eng.Reserve(c); err != nil {
			done(nil, false, config.Delta{}, fmt.Errorf("pool: reserving hit: %w", err))
			return
		}
		p.stats.Hits++
		if p.obs != nil {
			p.obs.hitsExact.Inc()
		}
		p.syncKeyGauges(key)
		done(c, true, config.Delta{}, nil)
		return
	}

	// Relaxed-key reuse (§VII): a container whose namespace-level
	// configuration matches can be adjusted at exec time.
	if p.opts.EnableRelaxed {
		if c := p.firstHealthy(p.byRelaxed[spec.Runtime.Relaxed()]); c != nil {
			if err := p.eng.Reserve(c); err == nil {
				p.stats.Hits++
				p.stats.RelaxedHits++
				if p.obs != nil {
					p.obs.hitsRelaxed.Inc()
				}
				p.syncKeyGauges(c.Key())
				delta := spec.Runtime.DeltaFrom(c.Spec.Runtime)
				done(c, true, delta, nil)
				return
			}
		}
	}

	// Cold path: before paying for a new container, try renting an
	// idle one from another runtime key (inter-function sharing).
	p.stats.Misses++
	if p.obs != nil {
		p.obs.misses.Inc()
	}
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
	p.makeRoom()
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
		p.syncKeyGauges(key)
		done(c, false, config.Delta{}, nil)
	})
}

// shareCandidate picks the lender for an inter-function lease: the
// least-recently-used available container whose runtime key differs
// from the requested spec's. Staleness mirrors keep-alive's eviction
// order — the container most likely to expire unused is rented first,
// and a busy function's freshly-released containers are left alone.
// The (LastUsedAt, CreatedAt, ID) order is total, so the choice is
// deterministic under Go's randomized map iteration (see older).
// Containers idle for less than ShareIdleGrace are never offered.
// Candidates are health-checked like any other hand-out.
func (p *Pool) shareCandidate(spec container.Spec) *container.Container {
	key := spec.Key()
	now := p.eng.Scheduler().Now()
	var best *container.Container
	for k, list := range p.byKey {
		if k == key {
			continue
		}
		for _, c := range list {
			if c.State() != container.Available {
				continue
			}
			if now-c.LastUsedAt < p.opts.ShareIdleGrace {
				continue // still in its owner's working set
			}
			if best == nil || older(c, best, true) {
				best = c
			}
		}
	}
	if best != nil && p.opts.HealthCheck != nil {
		if err := p.opts.HealthCheck(best); err != nil {
			p.Quarantine(best)
			return p.shareCandidate(spec)
		}
	}
	return best
}

// Lease re-keys an idle container of another runtime key as a zygote
// for spec and reserves it for the caller. The container leaves the
// pool indexes *before* any simulated time passes, so an Acquire
// arriving mid-lease — exact or relaxed — can never be handed the
// container under its former key. On success the container has been
// re-admitted under its new key and reserved; on failure it is
// returned to the pool untouched.
func (p *Pool) Lease(c *container.Container, spec container.Spec, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	oldKey := c.Key()
	p.remove(c)
	p.eng.Repurpose(c, spec, func(err error) {
		if err != nil {
			p.admit(c) // spec unchanged on failure: back under the old key
			done(fmt.Errorf("pool: leasing %s from %s: %w", c.ID, oldKey, err))
			return
		}
		p.admit(c)
		if rerr := p.eng.Reserve(c); rerr != nil {
			done(fmt.Errorf("pool: reserving leased container: %w", rerr))
			return
		}
		p.stats.Leases++
		if p.obs != nil {
			p.obs.leases.Inc()
		}
		p.syncKeyGauges(oldKey)
		p.syncKeyGauges(spec.Key())
		done(nil)
	})
}

// ReleaseUnused returns a reserved-but-unused container to the pool.
func (p *Pool) ReleaseUnused(c *container.Container) {
	p.eng.Unreserve(c)
	p.syncKeyGauges(c.Key())
}

// Release implements Algorithm 2: after the request finishes, clean
// the used container's volume and make it available again
// (num_avail[key]++ happens implicitly when the container returns to
// the Available state). done may be nil.
func (p *Pool) Release(c *container.Container, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if c.State() == container.Stopped {
		done(fmt.Errorf("pool: releasing stopped container %s", c.ID))
		return
	}
	p.eng.CleanVolume(c, func(err error) {
		// The pool may have grown past its cap while every container
		// was busy (requests must still be served); shrink back now
		// that a container has become evictable.
		p.shrinkToCap()
		p.syncKeyGauges(c.Key())
		done(err)
	})
}

// shrinkToCap evicts oldest available containers until the pool is
// back within its live cap and memory threshold.
func (p *Pool) shrinkToCap() {
	for p.Live() > p.opts.MaxLive {
		if !p.EvictOldest() {
			return
		}
	}
	for p.memoryPressure() {
		if !p.EvictOldest() {
			return
		}
	}
}

// Prewarm creates and initialises n containers for the spec/app pair
// ahead of demand (Algorithm 3's scale-up action). done is called once
// per container. Prewarming respects the caps.
func (p *Pool) Prewarm(spec container.Spec, app workload.App, n int, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	for i := 0; i < n; i++ {
		if !p.roomToGrow() {
			done(fmt.Errorf("pool: at capacity (%d live)", p.Live()))
			continue
		}
		p.makeRoom()
		p.eng.Create(spec, func(c *container.Container, err error) {
			if err != nil {
				done(err)
				return
			}
			p.admit(c)
			p.stats.Prewarmed++
			if p.obs != nil {
				p.obs.prewarmed.Inc()
			}
			p.eng.Warmup(c, app, func(err error) {
				p.syncKeyGauges(c.Key())
				done(err)
			})
		})
	}
}

// Retire stops up to n available containers of the given key
// (Algorithm 3's scale-down action), oldest first. It returns how many
// stops were initiated.
func (p *Pool) Retire(key config.Key, n int) int {
	stopped := 0
	for _, c := range p.byKey[key] {
		if stopped >= n {
			break
		}
		if c.State() != container.Available {
			continue
		}
		p.remove(c)
		p.stats.Retired++
		if p.obs != nil {
			p.obs.retired.Inc()
		}
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
	p.stats.Retired++
	if p.obs != nil {
		p.obs.retired.Inc()
	}
	p.eng.Stop(c, nil)
	return true
}

// Available returns the available containers for a key, oldest first
// (used by warm-up pingers to refresh idle runtimes).
func (p *Pool) Available(key config.Key) []*container.Container {
	var out []*container.Container
	for _, c := range p.byKey[key] {
		if c.State() == container.Available {
			out = append(out, c)
		}
	}
	return out
}

// EvictOldest force-stops one available container chosen by the pool's
// eviction policy — by default the oldest (§IV.B: "the oldest live
// container is forcibly terminated and releases the resources"), or
// the least recently used under EvictLRU; containers created (or last
// used) at the same instant fall back to ID order. It reports whether
// a container was evicted.
func (p *Pool) EvictOldest() bool {
	var victim *container.Container
	lru := p.opts.Eviction == EvictLRU
	for _, list := range p.byKey {
		for _, c := range list {
			if c.State() != container.Available {
				continue
			}
			if victim == nil || older(c, victim, lru) {
				victim = c
			}
		}
	}
	if victim == nil {
		return false
	}
	p.remove(victim)
	p.stats.Evictions++
	if p.obs != nil {
		p.obs.evictions.Inc()
	}
	p.eng.Stop(victim, nil)
	return true
}

// older is the pool's age order over containers: last use first when
// lru is set, then creation time, then ID. It is total, so a victim or
// lender picked by it does not depend on map iteration order.
func older(c, than *container.Container, lru bool) bool {
	if lru && c.LastUsedAt != than.LastUsedAt {
		return c.LastUsedAt < than.LastUsedAt
	}
	if c.CreatedAt != than.CreatedAt {
		return c.CreatedAt < than.CreatedAt
	}
	return c.ID < than.ID
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
	for _, list := range p.byKey {
		for _, c := range list {
			if c.State() == container.Available {
				return true
			}
		}
	}
	return false
}

// makeRoom enforces the live-container cap and the memory threshold by
// evicting oldest available containers ("If there exist too many
// containers or fewer resources, the oldest live container is forcibly
// terminated").
func (p *Pool) makeRoom() {
	for p.Live() >= p.opts.MaxLive {
		if !p.EvictOldest() {
			return // everything is busy; nothing to evict
		}
	}
	for p.memoryPressure() {
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
	if p.opts.HealthCheck == nil {
		return p.firstAvailable(list)
	}
	for {
		c := p.firstAvailable(list)
		if c == nil {
			return nil
		}
		if err := p.opts.HealthCheck(c); err == nil {
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
	p.stats.Quarantined++
	if p.obs != nil {
		p.obs.quarantined.Inc()
	}
	p.eng.Unreserve(c) // a reserved holder abandoning a bad container
	p.eng.Stop(c, func() { delete(p.quarantining, c) })
}

// admit registers a container in the pool indexes.
func (p *Pool) admit(c *container.Container) {
	key := c.Key()
	p.byKey[key] = append(p.byKey[key], c)
	rk := c.Spec.Runtime.Relaxed()
	p.byRelaxed[rk] = append(p.byRelaxed[rk], c)
	p.specs[key] = c.Spec
	p.syncKeyGauges(key)
}

// remove drops a container from the pool indexes.
func (p *Pool) remove(c *container.Container) {
	key := c.Key()
	p.byKey[key] = removeFrom(p.byKey[key], c)
	if len(p.byKey[key]) == 0 {
		delete(p.byKey, key)
	}
	rk := c.Spec.Runtime.Relaxed()
	p.byRelaxed[rk] = removeFrom(p.byRelaxed[rk], c)
	if len(p.byRelaxed[rk]) == 0 {
		delete(p.byRelaxed, rk)
	}
	p.syncKeyGauges(key)
}

func removeFrom(list []*container.Container, c *container.Container) []*container.Container {
	for i, x := range list {
		if x == c {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

// IdleMemMB reports the memory consumed by idle pool containers.
func (p *Pool) IdleMemMB() float64 {
	return p.eng.IdleOverheadMemMB()
}

// OldestAge returns the age of the oldest live container at the given
// virtual time, or zero when the pool is empty.
func (p *Pool) OldestAge(now time.Duration) time.Duration {
	var oldest *container.Container
	for _, list := range p.byKey {
		for _, c := range list {
			if oldest == nil || c.CreatedAt < oldest.CreatedAt {
				oldest = c
			}
		}
	}
	if oldest == nil {
		return 0
	}
	return now - oldest.CreatedAt
}
