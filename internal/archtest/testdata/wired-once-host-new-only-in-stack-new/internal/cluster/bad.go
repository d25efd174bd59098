package cluster

import "hotc/internal/host"

func node() {
	_ = host.New(e)
}
