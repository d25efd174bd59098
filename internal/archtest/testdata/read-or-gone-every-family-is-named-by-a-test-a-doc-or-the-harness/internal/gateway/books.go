package gateway

import "hotc/internal/obs"

// books declares two families: its test reads hotc_requests_total, and
// nothing reads hotc_acquire_latency_ms.
func books(reg *obs.Registry) {
	reg.Counter("hotc_requests_total", "Requests served.")
	reg.Histogram("hotc_acquire_latency_ms", "Time to a runtime, in milliseconds.", nil)
}
