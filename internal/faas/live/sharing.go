package live

import (
	"context"
	"time"

	"hotc/internal/sharing"
)

// candidateOf builds the policy slice of a deployed function.
func candidateOf(fn Function) sharing.Candidate {
	return sharing.Candidate{Image: fn.Image, MemoryMB: fn.MemoryMB, Key: fn.key, Shareable: !fn.NoShare}
}

// leaseInstance tries to rent an idle instance from another function's
// warm pool: the acquisition tier between the function's own warm pool
// and the generic prefork handoff. Each other shard offers its warm
// list, under its lock once, in name order — Pick's tie order — and
// sharing.Pick, the rule the simulated pool follows too, chooses the
// lender: a function of the renter's own runtime key first, with no
// reserve kept back. A fresh function with no classification history
// can rent, which is what makes the very first cold start of a new
// deploy avoidable.
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
	now := g.clock.Now()
	var owners []*shard
	var offers []sharing.Offer
	for _, s := range g.snapshotShards() {
		if s == renter {
			continue
		}
		s.mu.Lock()
		offers = append(offers, offerLocked(s, now))
		s.mu.Unlock()
		owners = append(owners, s)
	}
	var lend *instance
	for lend == nil {
		i, denied := sharing.Pick(g.sharePolicy, rc, offers, g.cfg.ShareIdleGrace)
		if i < 0 {
			if denied {
				g.obs.shareLeaseDenied.Inc()
			} else {
				g.obs.shareLeaseNoCandidate.Inc()
			}
			return nil, bootInfo{}, nil
		}
		// Nil only when another renter emptied the shard since its offer:
		// pick again from the rest.
		lend = g.lendOldest(owners[i], rc, now)
		offers[i].Idle = 0
	}
	inst, info, err := g.boot(ctx, fn, bootSource{lent: lend})
	if err == nil {
		g.obs.shareLeaseGranted.Inc()
	}
	return inst, info, err
}

// offerLocked is what s offers a renter at now: its warm list, oldest
// first. A tainted oldest instance is on its way out, so s offers
// nothing. Caller holds s.mu.
func offerLocked(s *shard, now time.Time) sharing.Offer {
	o := sharing.Offer{Role: s.ctl.share.Role(), Owner: candidateOf(s.fn), Forecast: s.ctl.Forecast}
	if len(s.idle) > 0 && !s.idle[0].tainted.Load() {
		o.Idle, o.IdleFor = len(s.idle), now.Sub(s.idle[0].idleSince)
	}
	return o
}

// lendOldest takes s's oldest warm instance for a lease if s may still
// lend it. The instance is tainted under s.mu as it leaves the list:
// from then on it belongs to no pool.
func (g *Gateway) lendOldest(s *shard, rc sharing.Candidate, now time.Time) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok, _ := offerLocked(s, now).Lends(g.sharePolicy, rc, g.cfg.ShareIdleGrace); !ok {
		return nil
	}
	lent := s.takeOldestLocked(1, notEvicted)[0]
	lent.tainted.Store(true)
	return lent
}

// shareRoleTransition publishes s's new classification to s.role and
// the lender/renter population gauges. Caller holds s.mu.
func (g *Gateway) shareRoleTransition(s *shard, prev, next sharing.Role) {
	s.role.Store(int32(next))
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
	// RentedBoots counts requests served by a rented zygote,
	// hotc_coldpath_boots_total{mode="rented"}. It always equals
	// LeasesGranted: both count a lease whose boot succeeded.
	RentedBoots int `json:"rentedBoots"`
	// Roles maps each function to its current classification.
	Roles map[string]string `json:"roles,omitempty"`
}

// SharingStats reports the sharing layer's accounting (only Enabled
// and Policy are set when sharing is off), read back from the
// hotc_share_* families that count lease outcomes and the
// lender/renter population. It takes no shard lock.
func (g *Gateway) SharingStats() SharingStats {
	st := SharingStats{
		Enabled: g.cfg.Share,
		Policy:  g.sharePolicy.Mode.String(),
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
	st.RentedBoots = int(g.obs.coldBoots[bootRented].Value())
	st.Roles = make(map[string]string)
	for _, s := range g.snapshotShards() {
		st.Roles[s.name] = sharing.Role(s.role.Load()).String()
	}
	return st
}
