package live

func (g *Gateway) reclaim(now time.Time, ttl time.Duration) int {
	expired := 0
	for ttl > 0 && expired < len(s.idle) && now.Sub(s.idle[expired].idleSince) >= ttl {
		expired++
	}
	return expired
}
