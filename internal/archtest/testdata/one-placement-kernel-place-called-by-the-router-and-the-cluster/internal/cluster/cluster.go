package cluster

import "hotc/internal/kernel"

func (c *Cluster) place(name string) []kernel.Choice {
	return kernel.Place(c.opts.Routing, name, c.ring, nil, 0, 1)
}
