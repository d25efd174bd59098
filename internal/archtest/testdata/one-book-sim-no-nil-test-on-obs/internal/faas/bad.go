package faas

func (g *Gateway) retried() {
	if g.obs != nil {
		g.obs.retries.Inc()
	}
}
