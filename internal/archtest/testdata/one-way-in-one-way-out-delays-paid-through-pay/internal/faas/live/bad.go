package live

import clock "time"

func (g *Gateway) boot(d clock.Duration) { clock.Sleep(d) }
