//go:build race

package hop

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation perturbs AllocsPerRun.
const raceEnabled = true
