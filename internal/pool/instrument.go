package pool

import (
	"hotc/internal/config"
	"hotc/internal/kernel"
	"hotc/internal/obs"
)

// keyGauges holds the pre-resolved occupancy gauges for one runtime
// key, so sync avoids label joins and vec lookups on every
// acquire/release.
type keyGauges struct {
	live  *obs.Gauge
	avail *obs.Gauge
}

// instruments are the pool's books: every pool event is counted here,
// once, and Stats reads the counters back. The hit counters are
// resolved once; each key's gauges once, into its pool entry.
type instruments struct {
	kernel.PoolBooks
	evictions   *obs.Counter  // hotc_pool_evictions_total
	quarantined *obs.Counter  // hotc_pool_quarantined_total
	leases      *obs.Counter  // hotc_pool_leases_total
	live        *obs.GaugeVec // hotc_pool_live{key}
	avail       *obs.GaugeVec // hotc_pool_available{key}

	hitsRelaxed    *obs.Counter // hotc_pool_hits_total{kind="relaxed"}
	retiredScaled  *obs.Counter // hotc_pool_retired_total{reason="scale_down"}
	retiredExpired *obs.Counter // hotc_pool_retired_total{reason="expired"}
}

// gauges resolves one runtime key's occupancy gauges.
func (ins *instruments) gauges(key config.Key) *keyGauges {
	k := string(key)
	return &keyGauges{live: ins.live.With(k), avail: ins.avail.With(k)}
}

// newInstruments registers the pool's metric families on the registry.
func newInstruments(reg *obs.Registry) *instruments {
	shared := kernel.NewPoolBooks(reg)
	return &instruments{
		PoolBooks: shared,
		evictions: reg.Counter("hotc_pool_evictions_total",
			"Forced terminations under the live cap or memory threshold."),
		quarantined: reg.Counter("hotc_pool_quarantined_total",
			"Containers removed after failing a health check or corrupting an execution."),
		leases: reg.Counter("hotc_pool_leases_total",
			"Containers rented from another runtime key and repurposed in place of a cold start."),
		live: reg.GaugeVec("hotc_pool_live",
			"Live pool containers (available or busy) per runtime key.",
			"key"),
		avail: reg.GaugeVec("hotc_pool_available",
			"Pool containers available for immediate reuse per runtime key.",
			"key"),
		hitsRelaxed:    shared.Hits.With("relaxed"),
		retiredScaled:  shared.Retired.With(kernel.RetireScaleDown),
		retiredExpired: shared.Retired.With(kernel.RetireExpired),
	}
}

// Stats reads the pool's counters back from its registry.
func (p *Pool) Stats() Stats {
	o := p.obs
	relaxed := int(o.hitsRelaxed.Value())
	return Stats{
		Hits:        int(o.HitsExact.Value()) + relaxed,
		RelaxedHits: relaxed,
		Misses:      int(o.Misses.Value()),
		Evictions:   int(o.evictions.Value()),
		Prewarmed:   int(o.Prewarmed.Value()),
		Retired:     int(o.retiredScaled.Value()) + int(o.retiredExpired.Value()),
		Quarantined: int(o.quarantined.Value()),
		Leases:      int(o.leases.Value()),
	}
}

// sync refreshes one entry's occupancy gauges.
func (p *Pool) sync(k *keyed) {
	if k.gauges == nil {
		k.gauges = p.obs.gauges(k.key)
	}
	k.gauges.live.Set(float64(len(k.list)))
	k.gauges.avail.Set(float64(k.avail))
}
