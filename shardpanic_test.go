package streamquantiles

import (
	"testing"
	"time"
)

// TestRecoveredPanicLeavesShardUnlocked drives every sharded write path
// into a summary that panics (an element outside its 8-bit universe),
// recovers, and checks that the shard the write held is free again:
// Count must return, and a valid write must land. A write path that
// unlocked only on normal return would leave the shard locked forever,
// so Count runs on its own goroutine under a deadline and a regression
// fails instead of hanging the suite.
func TestRecoveredPanicLeavesShardUnlocked(t *testing.T) {
	const bad = 1 << 20
	dcs := func(t *testing.T) *ShardedTurnstile {
		s, err := NewShardedTurnstile(2, func() Turnstile { return NewDCS(0.05, 8, DyadicConfig{Seed: 7}) })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	qd := func(t *testing.T) *ShardedCashRegister {
		s, err := NewShardedCashRegister(2, func() CashRegister { return NewQDigest(0.05, 8) })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Each case builds a fresh container and returns it with its
	// panicking write and a valid one.
	cases := []struct {
		name  string
		build func(t *testing.T) (s Summary, panics, valid func())
	}{
		{"turnstile/Insert", func(t *testing.T) (Summary, func(), func()) {
			s := dcs(t)
			return s, func() { s.Insert(bad) }, func() { s.Insert(3) }
		}},
		{"turnstile/InsertBatch", func(t *testing.T) (Summary, func(), func()) {
			s := dcs(t)
			return s, func() { s.InsertBatch([]uint64{bad}) }, func() { s.InsertBatch([]uint64{3}) }
		}},
		{"turnstile/writer-flush", func(t *testing.T) (Summary, func(), func()) {
			s := dcs(t)
			return s, func() {
					w := s.AcquireWriter()
					w.Insert(bad)
					w.Flush()
				}, func() {
					w := s.AcquireWriter()
					w.Insert(3)
					w.Close()
				}
		}},
		{"cash/Update", func(t *testing.T) (Summary, func(), func()) {
			s := qd(t)
			return s, func() { s.Update(bad) }, func() { s.Update(3) }
		}},
		{"cash/UpdateBatch", func(t *testing.T) (Summary, func(), func()) {
			s := qd(t)
			return s, func() { s.UpdateBatch([]uint64{bad}) }, func() { s.UpdateBatch([]uint64{3}) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, panics, valid := tc.build(t)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("writing %d did not panic", bad)
					}
				}()
				panics()
			}()
			count := func() int64 {
				done := make(chan int64, 1)
				go func() { done <- s.Count() }()
				select {
				case n := <-done:
					return n
				case <-time.After(5 * time.Second):
					t.Fatal("Count blocked after a recovered write panic: the shard lock was left held")
					return 0
				}
			}
			before := count()
			valid()
			if after := count(); after != before+1 {
				t.Errorf("valid write after the recovered panic: count %d -> %d, want +1", before, after)
			}
		})
	}
}

// TestRejectedFlushDoesNotWedgeWriter drives a writer handle's flush
// into a summary that rejects one buffered element by panicking. After
// the recovered panic the handle must hold nothing (the turnstile's
// buffered deletion included), its next Flush must not panic again, and
// a valid write through it must land.
func TestRejectedFlushDoesNotWedgeWriter(t *testing.T) {
	const bad = 1 << 20
	type handle interface {
		Flush()
		Buffered() int
	}
	rejected := []uint64{1, 2, bad}
	cases := []struct {
		name  string
		build func(t *testing.T) (s Summary, w handle, reject func(), write func(xs []uint64))
	}{
		{"cash", func(t *testing.T) (Summary, handle, func(), func([]uint64)) {
			s, err := NewShardedCashRegister(2, func() CashRegister { return NewQDigest(0.05, 8) })
			if err != nil {
				t.Fatal(err)
			}
			w := s.AcquireWriter()
			return s, w, func() { w.UpdateBatch(rejected) }, w.UpdateBatch
		}},
		{"turnstile", func(t *testing.T) (Summary, handle, func(), func([]uint64)) {
			s, err := NewShardedTurnstile(2, func() Turnstile { return NewDCS(0.05, 8, DyadicConfig{Seed: 7}) })
			if err != nil {
				t.Fatal(err)
			}
			w := s.AcquireWriter()
			return s, w, func() { w.InsertBatch(rejected); w.Delete(1) }, w.InsertBatch
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, w, reject, write := tc.build(t)
			reject()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("flushing %d did not panic", bad)
					}
				}()
				w.Flush()
			}()
			if n := w.Buffered(); n != 0 {
				t.Fatalf("%d elements still buffered after the rejected flush, want 0", n)
			}
			w.Flush() // must not panic: the rejected batch is gone
			before := s.Count()
			write([]uint64{3})
			w.Flush()
			if after := s.Count(); after != before+1 {
				t.Errorf("valid write after the rejected flush: count %d -> %d, want +1", before, after)
			}
		})
	}
}
