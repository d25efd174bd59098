package cluster

import "hotc/internal/sharing"

func (c *Cluster) rentAcross(offers []sharing.Offer) int {
	i, _ := sharing.Pick(sharing.Policy{}, anyone, offers, 0)
	return i
}
