package cluster

import "hotc/internal/faas"

func node() {
	_ = faas.NewGateway(e)
}
