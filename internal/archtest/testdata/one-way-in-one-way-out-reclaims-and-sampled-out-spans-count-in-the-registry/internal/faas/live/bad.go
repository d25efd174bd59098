package live

import "sync/atomic"

type tracer struct {
	ring       []span
	sampledOut atomic.Uint64
}
