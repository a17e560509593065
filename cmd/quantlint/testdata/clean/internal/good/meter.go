package good

import "sync"

// counter is a guarded count, embedded by Meter.
type counter struct {
	mu sync.Mutex
	n  int64 // guarded by mu
}

// Meter embeds counter, so the guarded field and its mutex are
// promoted.
type Meter struct{ counter }

// Add locks through the embedded field's explicit path and unlocks and
// writes through the promoted one: the lock analysis must see one mutex
// and one guarded field, so neither SQ010 nor SQ011 fires.
func (m *Meter) Add() {
	m.counter.mu.Lock()
	defer m.mu.Unlock()
	m.n++
}

// Total reads the promoted field under the promoted lock.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counter.n
}
