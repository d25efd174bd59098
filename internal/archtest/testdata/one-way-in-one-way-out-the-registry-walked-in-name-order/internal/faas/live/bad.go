package live

func (g *Gateway) controlTick() {
	for _, s := range g.shards {
		g.controlOnce(s.name)
	}
}
