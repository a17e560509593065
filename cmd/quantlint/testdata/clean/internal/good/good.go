// Package good is a miniature well-behaved summary: seeded-determinism
// friendly, panic-free hot paths and tolerance-based float handling.
package good

import "errors"

// ErrEmpty is the documented empty-query sentinel.
var ErrEmpty = errors.New("good: empty summary")

// Good counts elements and remembers the last one.
type Good struct {
	n    int64
	last uint64
}

// New returns an empty summary.
func New() *Good { return &Good{} }

// Update never panics.
func (g *Good) Update(x uint64) {
	g.n++
	g.last = x
}

// Count reports the stream length.
func (g *Good) Count() int64 { return g.n }

// Quantile panics only with the ErrEmpty sentinel.
func (g *Good) Quantile(phi float64) uint64 {
	if g.n == 0 {
		panic(ErrEmpty)
	}
	return g.last
}
