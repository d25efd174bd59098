package live

func (g *Gateway) shed(req *request) {
	g.finishRequest(req.s, &req.rt, 429, "busy")
}
