package pool

func (p *Pool) evicted() {
	p.obs.events.With("evict").Add(1)
}
