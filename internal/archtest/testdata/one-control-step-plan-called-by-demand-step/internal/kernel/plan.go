package kernel

func (d *Demand) Step(in PlanInput) (dec Decision) {
	d.Tick()
	dec.Target, dec.Boot, dec.Retire = Plan(in)
	return dec
}
