package live

import wall "time"

// A builtin that sleeps on the wall clock, a breaker time base and a
// janitor ticker of their own: each runs on the wall clock whatever the
// gateway's clock says.
func sleepBuiltin(ms int) { wall.Sleep(wall.Duration(ms) * wall.Millisecond) }

func (g *Gateway) since() wall.Duration { return wall.Since(g.epoch) }

func (g *Gateway) janitor(every wall.Duration) {
	for range wall.Tick(every) {
		g.janitorOnce(g.clock.Now())
	}
}
