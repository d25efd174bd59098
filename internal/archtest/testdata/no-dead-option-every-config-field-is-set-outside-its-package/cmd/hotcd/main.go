package main

import (
	"hotc/internal/core"
	"hotc/internal/faas/live"
	"hotc/internal/obs"
	"hotc/internal/router"
)

func main() {
	_ = live.PoolConfig{MaxInFlight: 4}
	_ = router.Config{Nodes: []string{"n1"}}
	var o core.Options
	o.Interval = 1
	o.Pool.MaxLive = 2
	_ = obs.SLOConfig{LatencyThreshold: 1}
	_ = obs.SamplerConfig{SampleRate: 0.01}
}
