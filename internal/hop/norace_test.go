//go:build !race

package hop

// raceEnabled gates allocation-count assertions; see the race-tagged
// twin of this file.
const raceEnabled = false
