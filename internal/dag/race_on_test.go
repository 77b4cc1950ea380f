//go:build race

package dag

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the decoder's scans several times over.
const raceEnabled = true
