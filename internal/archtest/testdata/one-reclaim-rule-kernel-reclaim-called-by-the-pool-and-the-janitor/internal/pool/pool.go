package pool

import "hotc/internal/kernel"

func (p *Pool) EvictOldest() bool {
	return len(kernel.Reclaim(p.ages(), 1)) > 0
}
