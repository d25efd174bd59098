package live

func (g *Gateway) release(s *shard, inst *instance) {
	s.idle = append(s.idle, inst)
}
