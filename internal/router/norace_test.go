//go:build !race

package router

// raceEnabled gates allocation-count assertions; see the race-tagged
// twin of this file.
const raceEnabled = false
