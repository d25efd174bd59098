package live

import (
	"context"
	wall "time"
)

// A builtin that sleeps on the wall clock, a breaker time base, a
// janitor ticker and a request deadline of their own: each runs on the
// wall clock whatever the gateway's clock says.
func sleepBuiltin(ms int) { wall.Sleep(wall.Duration(ms) * wall.Millisecond) }

func (g *Gateway) since() wall.Duration { return wall.Since(g.epoch) }

func (g *Gateway) janitor(every wall.Duration) {
	for range wall.Tick(every) {
		g.janitorOnce(g.clock.Now())
	}
}

func (g *Gateway) bound(ctx context.Context, d wall.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}
