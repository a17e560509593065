//go:build race

package streamquantiles

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Puts: allocation counts there measure the detector.
const raceEnabled = true
