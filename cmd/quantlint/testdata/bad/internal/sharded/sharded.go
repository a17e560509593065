// Package sharded trips SQ014: ops is a package-level atomic counter
// every writer would contend on. The same counter as a struct field
// stays silent.
package sharded

import "sync/atomic"

// ops is package-level shared hot state: flagged.
var ops atomic.Uint64

// container holds its counter as a field, which is the compliant shape.
type container struct {
	n atomic.Uint64
}

// touch keeps every declaration referenced.
func touch(c *container) uint64 {
	return ops.Load() + c.n.Load()
}
