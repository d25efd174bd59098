package cluster

import "hotc/internal/container"

func node() {
	_ = container.NewEngine(sched)
}
