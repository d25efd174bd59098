package live

import "time"

// A shard's warm list is Algorithm 1 and 2's keyed list: oldest first,
// reuse takes the newest, every eviction takes the oldest. The three
// methods below are the only code that assigns s.idle, syncs the
// hotc_live_warm_instances gauge or counts an eviction
// (scripts/verify.sh enforces it); callers hold s.mu and stop what they
// are handed outside it.

// pushLocked parks inst as the newest warm instance.
func (s *shard) pushLocked(inst *instance, now time.Time) {
	inst.idleSince = now
	s.idle = append(s.idle, inst)
	s.m.warm.Set(float64(len(s.idle)))
}

// popNewestLocked takes the newest warm instance for reuse, nil when
// the list is empty.
func (s *shard) popNewestLocked() *instance {
	n := len(s.idle)
	if n == 0 {
		return nil
	}
	inst := s.idle[n-1]
	s.idle = s.idle[:n-1]
	s.m.warm.Set(float64(n - 1))
	return inst
}

// takeOldestLocked removes the n oldest warm instances (all of them when
// there are fewer) and returns them. evicted names the shard counter the
// removal is an eviction under — &s.stats.Retired or &s.stats.Expired —
// and also feeds hotc_pool_retired_total; a lease and the Stop drain,
// which evict nothing, pass nil.
func (s *shard) takeOldestLocked(n int, evicted *int) []*instance {
	if n > len(s.idle) {
		n = len(s.idle)
	}
	if n <= 0 {
		return nil
	}
	out := s.idle[:n:n]
	s.idle = append(s.idle[:0:0], s.idle[n:]...) // a fresh array: out keeps the old one
	s.m.warm.Set(float64(len(s.idle)))
	if evicted != nil {
		*evicted += n
		s.m.poolRetired.Add(float64(n))
	}
	return out
}
