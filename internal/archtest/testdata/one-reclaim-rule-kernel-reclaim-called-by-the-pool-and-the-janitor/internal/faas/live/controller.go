package live

import "hotc/internal/kernel"

func (g *Gateway) reclaim() int { return len(kernel.Reclaim(g.ages(), 1)) }
