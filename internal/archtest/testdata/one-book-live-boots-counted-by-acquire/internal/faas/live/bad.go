package live

func (g *Gateway) prewarmOne(s *shard) {
	g.obs.coldBoots[bootCold].Inc()
}
