//go:build !race

package streamquantiles

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
