package pool

func (p *Pool) entry(spec *Spec) *entry {
	p.byKey[spec.Key()] = p.fresh() // a by-key report may write one
	return p.byKey[spec.Key()]
}
