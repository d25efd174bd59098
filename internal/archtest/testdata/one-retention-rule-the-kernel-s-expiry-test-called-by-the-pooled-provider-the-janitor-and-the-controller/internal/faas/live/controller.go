package live

import "hotc/internal/kernel"

func (g *Gateway) reclaim() bool { return kernel.Expired(g.idleFor(), g.window()) }

func (g *Gateway) controlOnce() bool { return !kernel.Expired(g.idleFor(), g.window()) }

func (g *Gateway) leaseInstance() bool { return kernel.Expired(g.idleFor(), g.window()) }
