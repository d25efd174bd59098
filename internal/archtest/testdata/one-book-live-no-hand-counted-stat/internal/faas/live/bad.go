package live

func (g *Gateway) acquire(s *shard) {
	s.stats.Requests++
}
