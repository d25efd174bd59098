package live

func (g *Gateway) shed(req *request) {
	req.s.observe("rejected", req.rt.start)
}
