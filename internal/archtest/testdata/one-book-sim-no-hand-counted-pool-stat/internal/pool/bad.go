package pool

func (p *Pool) Reuse() {
	p.stats.Hits += 1
}
