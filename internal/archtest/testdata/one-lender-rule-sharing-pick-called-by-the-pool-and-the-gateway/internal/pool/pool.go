package pool

import "hotc/internal/sharing"

func (p *Pool) shareCandidate(offers []sharing.Offer) int {
	i, _ := sharing.Pick(sharing.Policy{}, anyone, offers, 0)
	return i
}
