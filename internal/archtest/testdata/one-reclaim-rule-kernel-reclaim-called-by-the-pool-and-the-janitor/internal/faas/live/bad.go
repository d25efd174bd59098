package live

import "hotc/internal/kernel"

func (g *Gateway) capIdle() int { return len(kernel.Reclaim(g.ages(), 2)) }
