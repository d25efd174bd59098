package live

import (
	"math"
	"sync/atomic"
	"time"

	"hotc/internal/sharing"
)

// shareState is the gateway's inter-function sharing state
// (Pagurus-style: on a warm miss, before any boot is paid, lease an idle
// instance from another function). policy is PoolConfig.SharePolicy
// parsed once by New; classifier tunes the lender/renter classifier of
// shards created afterwards (zero value = defaults; only in-package
// tests set it, before registering functions); the counters are atomics
// fed from the lease path and the controller.
type shareState struct {
	policy     sharing.Policy
	classifier sharing.ClassifierConfig

	lenders     atomic.Int64  // functions currently classified lenders
	renters     atomic.Int64  // functions currently classified renters
	granted     atomic.Uint64 // leases that produced a rented boot
	noCandidate atomic.Uint64 // lease attempts with no eligible lender
	denied      atomic.Uint64 // lease attempts blocked by policy/opt-out
}

// candidateOf builds the policy slice of a deployed function.
func candidateOf(fn Function) sharing.Candidate {
	return sharing.Candidate{Image: fn.Image, MemoryMB: fn.MemoryMB, Shareable: !fn.NoShare}
}

// leaseInstance tries to rent an idle instance from another function's
// warm pool: the acquisition tier between the function's own warm pool
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
	if !rc.Shareable {
		g.share.denied.Add(1)
		g.obs.shareLeaseDenied.Inc()
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
				reserve = int(math.Ceil(s.ctl.Forecast))
			}
			if len(s.idle) <= reserve {
				s.mu.Unlock()
				continue
			}
			inst := s.idle[0] // oldest: reuse pops from the tail
			if inst.tainted.Load() || now.Sub(inst.idleSince) < g.cfg.ShareIdleGrace {
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
			g.obs.shareLeaseDenied.Inc()
		} else {
			g.share.noCandidate.Add(1)
			g.obs.shareLeaseNoCandidate.Inc()
		}
		return nil, bootInfo{}, false
	}

	// The lease: wipe, re-specialize, pay the renter-specific boot
	// share. Tainting first guarantees the old instance can never be
	// re-rented or re-pooled while (or after) it is being wiped.
	lend.tainted.Store(true)
	time.Sleep(g.cfg.ShareWipe)
	wd := lend.wd
	wd.Specialize(watchdogHandler(fn, g.cfg.MaxBodyBytes))
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
	info := bootInfo{mode: bootRented, wipe: g.cfg.ShareWipe, pull: pull, app: ph.app, skippedMB: skipped}
	g.share.granted.Add(1)
	g.obs.shareLeaseGranted.Inc()
	g.observeBoot(info)
	// The connection moves with the watchdog: the tainted struct keeps
	// nothing the renter's requests will touch.
	inst, _ := g.newInstance(fn, wd, lend.hop) // no dial, no error
	lend.hop = nil
	return inst, info, true
}

// shareRoleTransition updates the lender/renter population counters
// and gauges when a function's classification changes.
func (g *Gateway) shareRoleTransition(prev, next sharing.Role) {
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
	g.obs.shareLenders.Set(float64(g.share.lenders.Load()))
	g.obs.shareRenters.Set(float64(g.share.renters.Load()))
}

// SharingStats snapshots the sharing layer for /system/stats.
type SharingStats struct {
	// Enabled reports whether sharing is armed (PoolConfig.Share).
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

// SharingStats reports the sharing layer's accounting (only Enabled
// and Policy are set when sharing is off).
func (g *Gateway) SharingStats() SharingStats {
	st := SharingStats{
		Enabled: g.cfg.Share,
		Policy:  g.share.policy.Mode.String(),
	}
	if !g.cfg.Share {
		return st
	}
	st.WipeMS = float64(g.cfg.ShareWipe) / float64(time.Millisecond)
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
