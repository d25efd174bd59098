package kernel

func (d *Demand) Observe() float64 {
	observed, _ := d.Tick()
	return observed
}
