package bench

import "hotc/internal/obs"

// Package-level observability hookup. The figure experiments build
// their environments internally, so hotc-bench cannot thread a
// registry through each call; instead it arms these before running and
// every Env built afterwards hands them to the stack builder.
var (
	obsReg    *obs.Registry
	obsTracer *obs.Tracer
)

// EnableObservability attaches a metrics registry and (optionally) a
// span tracer to every environment NewEnv builds from now on. Families
// are shared across environments, so counters accumulate over all
// experiments in the run and gauges report the most recent
// environment's state. Pass nil values to detach.
//
// Not safe to call while experiments are running; arm it once at
// startup.
func EnableObservability(reg *obs.Registry, tracer *obs.Tracer) {
	obsReg = reg
	obsTracer = tracer
}
