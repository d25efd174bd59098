package live

func (g *Gateway) conclude(req *request, e ending) {
	req.s.observe(e.outcome, req.rt.start)
	g.finishRequest(req.s, &req.rt, e.status, e.errMsg)
}
