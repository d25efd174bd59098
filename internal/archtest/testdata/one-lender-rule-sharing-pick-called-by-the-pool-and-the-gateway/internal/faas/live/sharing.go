package live

import "hotc/internal/sharing"

func (g *Gateway) leaseInstance(offers []sharing.Offer) int {
	i, _ := sharing.Pick(g.share.policy, rc, offers, 0)
	return i
}
