package live

import (
	"context"
	"math"
	"time"

	"hotc/internal/sharing"
)

// shareState is the gateway's inter-function sharing state
// (Pagurus-style: on a warm miss, before any boot is paid, lease an idle
// instance from another function). policy is PoolConfig.SharePolicy
// parsed once by New; classifier tunes the lender/renter classifier of
// shards created afterwards (zero value = defaults; only in-package
// tests set it, before registering functions). Lease outcomes and the
// lender/renter population are counted in the hotc_share_* families,
// which SharingStats reads back.
type shareState struct {
	policy     sharing.Policy
	classifier sharing.ClassifierConfig
}

// candidateOf builds the policy slice of a deployed function.
func candidateOf(fn Function) sharing.Candidate {
	return sharing.Candidate{Image: fn.Image, MemoryMB: fn.MemoryMB, Shareable: !fn.NoShare}
}

// leaseInstance tries to rent an idle instance from another function's
// warm pool: the acquisition tier between the function's own warm pool
// and the generic prefork handoff. Classified lenders are asked first
// (they reserve nothing), then neutral shards (which lend only surplus
// above their own forecast — a fresh function with no classification
// history can still rent, which is what makes the very first cold
// start of a new deploy avoidable); renter shards never lend. Within a
// pass the lender is chosen by rule, not by iteration order: the shard
// whose oldest instance has been idle longest — the container most
// likely to expire unused, pool.shareCandidate's rule — ties to the
// first name.
//
// The lease itself is boot's rented row, outside every lock. No
// eligible lender returns (nil, _, nil) and the caller boots instead; an
// error is ctx's — the lease was abandoned mid-wipe or mid-init and the
// lender's container destroyed with it.
func (g *Gateway) leaseInstance(ctx context.Context, renter *shard, fn Function) (*instance, bootInfo, error) {
	if !g.cfg.Share {
		return nil, bootInfo{}, nil
	}
	rc := candidateOf(fn)
	if !rc.Shareable {
		g.obs.shareLeaseDenied.Inc()
		return nil, bootInfo{}, nil
	}
	now := g.nowFn()
	var lend *instance
	sawDenial := false
	shards := g.snapshotShards()
	for pass := 0; pass < 2 && lend == nil; pass++ {
		for {
			var best *shard
			var bestSince time.Time
			for _, s := range shards {
				if s == renter {
					continue
				}
				s.mu.Lock()
				since, ok, denied := g.lendableLocked(s, rc, pass == 0, now)
				s.mu.Unlock()
				sawDenial = sawDenial || denied
				if ok && (best == nil || since.Before(bestSince)) {
					best, bestSince = s, since
				}
			}
			if best == nil {
				break
			}
			// Nil only when another renter emptied best since the scan:
			// choose again from what is left.
			if lend = g.lendOldest(best, rc, pass == 0, now); lend != nil {
				break
			}
		}
	}
	if lend == nil {
		if sawDenial {
			g.obs.shareLeaseDenied.Inc()
		} else {
			g.obs.shareLeaseNoCandidate.Inc()
		}
		return nil, bootInfo{}, nil
	}
	inst, info, err := g.boot(ctx, fn, bootSource{lent: lend})
	if err == nil {
		g.obs.shareLeaseGranted.Inc()
	}
	return inst, info, err
}

// lendableLocked reports whether s may lend its oldest warm instance to
// rc on this pass (classified lenders only, then neutral shards) and
// since when that instance has been idle, or that only the policy stood
// in the way. Caller holds s.mu.
func (g *Gateway) lendableLocked(s *shard, rc sharing.Candidate, lendersOnly bool, now time.Time) (since time.Time, ok, denied bool) {
	role := s.ctl.share.Role()
	if role == sharing.RoleRenter || lendersOnly != (role == sharing.RoleLender) {
		return
	}
	if compatible, _ := g.share.policy.Compatible(rc, candidateOf(s.fn)); !compatible {
		denied = true
		return
	}
	// A neutral shard keeps its own forecast's worth of warm instances; a
	// classified lender has demonstrably more than it needs and reserves
	// nothing.
	reserve := 0
	if role != sharing.RoleLender {
		reserve = int(math.Ceil(s.ctl.Forecast))
	}
	if len(s.idle) <= reserve || s.idle[0].tainted.Load() || now.Sub(s.idle[0].idleSince) < g.cfg.ShareIdleGrace {
		return
	}
	return s.idle[0].idleSince, true, false
}

// lendOldest takes s's oldest warm instance for a lease if s may still
// lend it. The instance is tainted under s.mu as it leaves the list:
// from then on it belongs to no pool.
func (g *Gateway) lendOldest(s *shard, rc sharing.Candidate, lendersOnly bool, now time.Time) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok, _ := g.lendableLocked(s, rc, lendersOnly, now); !ok {
		return nil
	}
	lent := s.takeOldestLocked(1, nil)[0]
	lent.tainted.Store(true)
	return lent
}

// shareRoleTransition moves the lender/renter population gauges when a
// function's classification changes.
func (g *Gateway) shareRoleTransition(prev, next sharing.Role) {
	adj := func(r sharing.Role, d float64) {
		switch r {
		case sharing.RoleLender:
			g.obs.shareLenders.Add(d)
		case sharing.RoleRenter:
			g.obs.shareRenters.Add(d)
		}
	}
	adj(prev, -1)
	adj(next, 1)
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
	st.Lenders = int(g.obs.shareLenders.Value())
	st.Renters = int(g.obs.shareRenters.Value())
	st.LeasesGranted = uint64(g.obs.shareLeaseGranted.Value())
	st.LeasesNoCandidate = uint64(g.obs.shareLeaseNoCandidate.Value())
	st.LeasesDenied = uint64(g.obs.shareLeaseDenied.Value())
	st.Roles = make(map[string]string)
	for _, s := range g.snapshotShards() {
		s.mu.Lock()
		st.Roles[s.name] = s.ctl.share.Role().String()
		st.RentedBoots += s.stats.RentedBoots
		s.mu.Unlock()
	}
	return st
}
