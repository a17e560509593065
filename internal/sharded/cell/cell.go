// Package cell holds a shard's guarded state: one summary behind one
// mutex, with a write epoch and a retired flag. The fields are
// unexported and every accessor holds the mutex for its whole call and
// releases it by defer, so the compiler keeps other packages off the
// summary unless they hold the lock, and a callback that panics cannot
// leave the lock held.
//
// Callbacks run under the lock and must not retain the summary they are
// handed, nor call back into the same cell.
package cell

import (
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
)

// CacheLine is the placement granularity for hot shared state: 128
// bytes, two 64-byte lines, so the spatial prefetcher's paired line
// loads cannot re-introduce false sharing between neighbours either.
const CacheLine = 128

// Cell is one summary behind its own mutex, padded to exactly one
// CacheLine (TestShardStructsPadded pins the size). A generation stores
// its shards as []Cell; without the padding, cell i's lock word and
// cell i+1's summary header would share a line, and P writers on P
// cores would ping that line between caches on every update even though
// they never touch each other's shard.
//
// The epoch counts writes: it is bumped under the lock before every
// mutation and loadable without it (Epoch), which is what lets a query
// cache validate a fold lock-free. A retired cell holds no summary;
// Write and Retire refuse it, so a writer that catches a cell
// mid-retire re-routes.
type Cell struct {
	mu      sync.Mutex
	s       core.Summary
	retired bool
	epoch   atomic.Uint64
	// The live fields above occupy 40 bytes on 64-bit; the blank tail
	// rounds the struct up to CacheLine.
	_ [CacheLine - 40]byte
}

// Init installs s in a cell that no other goroutine can reach yet: one
// of a generation that is still being built.
func (c *Cell) Init(s core.Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s = s
}

// Read runs fn on the summary and returns the write epoch observed
// while holding the lock, so the value fn computed and the epoch agree.
func (c *Cell) Read(fn func(s core.Summary)) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.s)
	return c.epoch.Load()
}

// Write bumps the epoch and runs fn on the summary, reporting true; on a
// retired cell it reports false without calling fn.
func (c *Cell) Write(fn func(s core.Summary)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired {
		return false
	}
	c.epoch.Add(1)
	fn(c.s)
	return true
}

// Retire runs fn (when non-nil) on the summary; when fn succeeds it
// marks the cell retired, bumps the epoch and hands the summary out,
// leaving the cell empty. When fn fails nothing changes and its error
// is returned. A retired cell returns nil without calling fn, so the
// summary is handed out exactly once.
func (c *Cell) Retire(fn func(s core.Summary) error) (core.Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired {
		return nil, nil
	}
	if fn != nil {
		if err := fn(c.s); err != nil {
			return nil, err
		}
	}
	s := c.s
	c.retired, c.s = true, nil
	c.epoch.Add(1)
	return s, nil
}

// Epoch loads the write epoch without the lock.
func (c *Cell) Epoch() uint64 { return c.epoch.Load() }
