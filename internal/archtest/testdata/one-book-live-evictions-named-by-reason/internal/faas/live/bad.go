package live

func (g *Gateway) expire(s *shard, n int) []*instance {
	return s.takeOldestLocked(n, &s.expired)
}
