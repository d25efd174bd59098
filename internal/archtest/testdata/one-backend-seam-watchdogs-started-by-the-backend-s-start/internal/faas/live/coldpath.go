package live

import "hotc/internal/prefork"

func (g *Gateway) bootGeneric() (*prefork.Watchdog, error) {
	return prefork.Start(nil)
}
