package live

func (g *Gateway) acquire(s *shard) {
	g.obs.coldBoots[bootCold].Inc()
}
