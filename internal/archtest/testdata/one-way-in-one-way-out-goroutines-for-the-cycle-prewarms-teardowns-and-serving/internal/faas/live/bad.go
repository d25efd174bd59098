package live

func (g *Gateway) Register(fn Function) {
	go g.janitor(fn.Name)
}
