//go:build race

package router

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation perturbs AllocsPerRun.
const raceEnabled = true
