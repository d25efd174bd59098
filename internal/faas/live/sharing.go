package live

import (
	"math"
	"sync/atomic"
	"time"

	"hotc/internal/sharing"
)

// Default lease costs: the volume wipe is §IV.B's cleanup (small, paid
// on the renter's first request), and the idle grace keeps just-parked
// instances out of the lending pool so a lender's own next request
// still finds them warm.
const (
	defaultShareWipe      = 5 * time.Millisecond
	defaultShareIdleGrace = 250 * time.Millisecond
)

// SharingConfig arms Pagurus-style inter-function sharing: on a warm
// miss, before any boot is paid, the gateway tries to lease an idle
// instance from another function — wipe its volume, atomically swap
// the watchdog handler to the renter's, and pay only app init plus any
// image-layer delta. Call EnableSharing before Start, like the other
// Enables.
type SharingConfig struct {
	// Policy gates which function pairs may share (same-image by
	// default; see sharing.ParseMode for the flag values).
	Policy sharing.Policy
	// Wipe is the volume-cleanup delay every lease pays before
	// re-specialization (default 5ms).
	Wipe time.Duration
	// IdleGrace is the minimum idle age before an instance may be lent
	// (default 250ms). Lower it in tests for determinism.
	IdleGrace time.Duration
	// Classifier tunes the lender/renter classifier fed by the control
	// loop (zero value = defaults).
	Classifier sharing.ClassifierConfig
}

// shareState is the gateway's resolved sharing state. Config fields
// are written by EnableSharing before Start and read-only afterwards;
// the counters are atomics fed from the lease path and the controller.
type shareState struct {
	enabled   bool
	policy    sharing.Policy
	wipe      time.Duration
	idleGrace time.Duration
	clsCfg    sharing.ClassifierConfig

	lenders     atomic.Int64  // functions currently classified lenders
	renters     atomic.Int64  // functions currently classified renters
	granted     atomic.Uint64 // leases that produced a rented boot
	noCandidate atomic.Uint64 // lease attempts with no eligible lender
	denied      atomic.Uint64 // lease attempts blocked by policy/opt-out
}

// EnableSharing configures inter-function sharing. Call before Start.
func (g *Gateway) EnableSharing(cfg SharingConfig) {
	if cfg.Wipe <= 0 {
		cfg.Wipe = defaultShareWipe
	}
	switch {
	case cfg.IdleGrace == 0:
		cfg.IdleGrace = defaultShareIdleGrace
	case cfg.IdleGrace < 0:
		cfg.IdleGrace = 0
	}
	g.share.enabled = true
	g.share.policy = cfg.Policy
	g.share.wipe = cfg.Wipe
	g.share.idleGrace = cfg.IdleGrace
	g.share.clsCfg = cfg.Classifier
	// Shards registered before EnableSharing get their classifiers
	// seeded with the configured tuning.
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		s.ctl.share = *sharing.NewClassifier(cfg.Classifier)
		s.mu.Unlock()
	}
}

// candidateOf builds the policy slice of a deployed function.
func candidateOf(fn Function) sharing.Candidate {
	return sharing.Candidate{Image: fn.Image, MemoryMB: fn.MemoryMB, Shareable: !fn.NoShare}
}

// leaseInstance tries to rent an idle instance from another function's
// warm pool: the third acquisition tier, between the relaxed warm pool
// and the generic prefork handoff. It scans classified lenders first
// (they reserve nothing), then neutral shards (which lend only surplus
// above their own forecast — a fresh function with no classification
// history can still rent, which is what makes the very first cold
// start of a new deploy avoidable); renter shards never lend. The
// chosen instance is the lender's oldest — the one its keep-alive
// would reclaim first anyway.
//
// The lease itself runs outside every lock: taint the instance, pay
// the volume wipe, swap the watchdog handler atomically, pay the
// image-layer delta (zero on a same-image lease) plus the renter's app
// init. The tainted lender-side instance struct is abandoned — it can
// never re-enter any idle list — and the renter gets a fresh clean
// instance around the same watchdog.
func (g *Gateway) leaseInstance(renter *shard, fn Function) (*instance, bootInfo, bool) {
	rc := candidateOf(fn)
	ins := g.obs.Load()
	if !rc.Shareable {
		g.share.denied.Add(1)
		if ins != nil {
			ins.shareLeaseDenied.Inc()
		}
		return nil, bootInfo{}, false
	}
	now := g.nowFn()
	var lend *instance
	var lenderFn Function
	sawDenial := false
	shards := g.snapshotShards()
scan:
	for pass := 0; pass < 2; pass++ {
		for _, s := range shards {
			if s == renter {
				continue
			}
			s.mu.Lock()
			role := s.ctl.share.Role()
			if role == sharing.RoleRenter ||
				(pass == 0) != (role == sharing.RoleLender) {
				s.mu.Unlock()
				continue
			}
			ok, _ := g.share.policy.Compatible(rc, candidateOf(s.fn))
			if !ok {
				sawDenial = true
				s.mu.Unlock()
				continue
			}
			// A neutral shard keeps its own forecast's worth of warm
			// instances; a classified lender has demonstrably more than
			// it needs and reserves nothing.
			reserve := 0
			if role != sharing.RoleLender {
				reserve = int(math.Ceil(s.ctl.forecast))
			}
			if len(s.idle) <= reserve {
				s.mu.Unlock()
				continue
			}
			inst := s.idle[0] // oldest: reuse pops from the tail
			if inst.tainted.Load() || now.Sub(inst.idleSince) < g.share.idleGrace {
				s.mu.Unlock()
				continue
			}
			s.idle = append(s.idle[:0:0], s.idle[1:]...)
			s.syncWarmLocked()
			lenderFn = s.fn
			lend = inst
			s.mu.Unlock()
			break scan
		}
	}
	if lend == nil {
		if sawDenial {
			g.share.denied.Add(1)
			if ins != nil {
				ins.shareLeaseDenied.Inc()
			}
		} else {
			g.share.noCandidate.Add(1)
			if ins != nil {
				ins.shareLeaseNoCandidate.Inc()
			}
		}
		return nil, bootInfo{}, false
	}

	// The lease: wipe, re-specialize, pay the renter-specific boot
	// share. Tainting first guarantees the old instance can never be
	// re-rented or re-pooled while (or after) it is being wiped.
	lend.tainted.Store(true)
	if g.share.wipe > 0 {
		time.Sleep(g.share.wipe)
	}
	wd := lend.wd
	wd.Specialize(watchdogHandler(fn, g.maxBody))
	ph := g.phasesFor(fn)
	var pull time.Duration
	var skipped float64
	if fn.Image != lenderFn.Image {
		// Cross-image lease (ModeAny): the renter pays the layer delta
		// its own boot would have, cache-scaled. Same image = the
		// layers are already in place, nothing to pull.
		pull, skipped = g.pullCost(ph)
	}
	if d := pull + ph.app; d > 0 {
		time.Sleep(d)
	}
	info := bootInfo{mode: bootRented, wipe: g.share.wipe, pull: pull, app: ph.app, skippedMB: skipped}
	g.share.granted.Add(1)
	if ins != nil {
		ins.shareLeaseGranted.Inc()
	}
	g.observeBoot(info)
	// The connection moves with the watchdog: the tainted struct keeps
	// nothing the renter's requests will touch.
	inst, _ := g.newInstance(fn, wd, lend.hop) // no dial, no error
	lend.hop = nil
	return inst, info, true
}

// shareRoleTransition updates the lender/renter population counters
// and gauges when a function's classification changes.
func (g *Gateway) shareRoleTransition(prev, next sharing.Role, ins *instruments) {
	adj := func(r sharing.Role, d int64) {
		switch r {
		case sharing.RoleLender:
			g.share.lenders.Add(d)
		case sharing.RoleRenter:
			g.share.renters.Add(d)
		}
	}
	adj(prev, -1)
	adj(next, 1)
	if ins != nil {
		ins.shareLenders.Set(float64(g.share.lenders.Load()))
		ins.shareRenters.Set(float64(g.share.renters.Load()))
	}
}

// SharingStats snapshots the sharing layer for /system/stats.
type SharingStats struct {
	// Enabled reports whether EnableSharing was called.
	Enabled bool `json:"enabled"`
	// Policy is the compatibility mode ("same-image" or "any").
	Policy string `json:"policy"`
	// WipeMS is the configured volume-wipe cost per lease.
	WipeMS float64 `json:"wipeMS"`
	// Lenders and Renters count functions currently classified.
	Lenders int `json:"lenders"`
	Renters int `json:"renters"`
	// Lease outcomes over the gateway's lifetime.
	LeasesGranted     uint64 `json:"leasesGranted"`
	LeasesNoCandidate uint64 `json:"leasesNoCandidate"`
	LeasesDenied      uint64 `json:"leasesDenied"`
	// RentedBoots counts requests served by a rented zygote (the
	// per-shard sum; equals LeasesGranted minus controller prewarms).
	RentedBoots int `json:"rentedBoots"`
	// Roles maps each function to its current classification.
	Roles map[string]string `json:"roles,omitempty"`
}

// SharingStats reports the sharing layer's accounting (zero value with
// Enabled=false when sharing was never configured).
func (g *Gateway) SharingStats() SharingStats {
	st := SharingStats{
		Enabled: g.share.enabled,
		Policy:  g.share.policy.Mode.String(),
	}
	if !g.share.enabled {
		return st
	}
	st.WipeMS = float64(g.share.wipe) / float64(time.Millisecond)
	st.Lenders = int(g.share.lenders.Load())
	st.Renters = int(g.share.renters.Load())
	st.LeasesGranted = g.share.granted.Load()
	st.LeasesNoCandidate = g.share.noCandidate.Load()
	st.LeasesDenied = g.share.denied.Load()
	st.Roles = make(map[string]string)
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		st.Roles[s.name] = s.ctl.share.Role().String()
		st.RentedBoots += s.stats.RentedBoots
		s.mu.Unlock()
	}
	return st
}
