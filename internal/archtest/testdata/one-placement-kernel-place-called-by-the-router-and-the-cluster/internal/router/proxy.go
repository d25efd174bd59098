package router

import "hotc/internal/kernel"

func (rt *Router) placement(fn string) []kernel.Choice {
	return kernel.Place(rt.cfg.Policy, fn, rt.ring, nil, 0, 1)
}
