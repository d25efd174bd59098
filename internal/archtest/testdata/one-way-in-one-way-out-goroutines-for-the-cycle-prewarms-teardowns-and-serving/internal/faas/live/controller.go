package live

func (g *Gateway) startCycle() { go g.cycle() }
