package cluster

import "hotc/internal/kernel"

func (c *Cluster) spill(name string) []kernel.Choice {
	return kernel.Place(kernel.PolicyRoundRobin, name, c.ring, nil, 0, 1)
}
