package sharded

import (
	"testing"
	"unsafe"

	"streamquantiles/internal/sharded/cell"
)

// TestRoundRobinCursorIsolated pins the blank lines around the legacy
// round-robin cursor: no other CashRegister field may land within a
// cell.CacheLine of it — neither the embedded container before it nor
// the handle slot counter after it — or handle-less writers would
// false-share with the topology fields the query path reads. (Go only
// word-aligns the struct itself, so the guarantee is blank space on
// both sides of rr, not an absolute line boundary.)
func TestRoundRobinCursorIsolated(t *testing.T) {
	var c CashRegister
	off := unsafe.Offsetof(c.rr)
	if before := unsafe.Offsetof(c.container) + unsafe.Sizeof(c.container); off-before < cell.CacheLine {
		t.Errorf("only %d blank bytes before rr, want >= cell.CacheLine (%d)", off-before, cell.CacheLine)
	}
	if next := unsafe.Offsetof(c.wslot); next-off-unsafe.Sizeof(c.rr) < cell.CacheLine-8 {
		t.Errorf("only %d blank bytes after rr, want >= %d", next-off-unsafe.Sizeof(c.rr), cell.CacheLine-8)
	}
}
