package live

import "time"

func (g *Gateway) janitor(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		g.janitorOnce(time.Now())
	}
}
