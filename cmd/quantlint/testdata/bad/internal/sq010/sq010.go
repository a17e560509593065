// Package sq010 trips exactly SQ010: Peek reads the guarded field with
// no lock held, and Reset writes it through an embedding wrapper.
package sq010

import "sync"

// Box counts events behind a mutex.
type Box struct {
	mu sync.Mutex
	n  int64 // guarded by mu
}

// NewBox builds an empty Box (constructors are SQ010-exempt).
func NewBox() *Box { return &Box{} }

// Bump holds the lock across the mutation, as the annotation demands.
func (b *Box) Bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// Peek reads the guarded counter without the mutex: the SQ010 finding.
func (b *Box) Peek() int64 {
	return b.n
}

// Tally embeds Box, promoting both the guarded counter and its mutex.
type Tally struct{ Box }

// Reset writes the promoted counter without the mutex: a second SQ010
// finding, reached through the embedded field's explicit path.
func (t *Tally) Reset() {
	t.Box.n = 0
}
