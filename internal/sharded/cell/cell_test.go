package cell

import (
	"errors"
	"testing"
	"unsafe"

	"streamquantiles/internal/core"
)

// counter is the smallest core.Summary: a count the tests bump.
type counter struct{ n int64 }

func (c *counter) Count() int64            { return c.n }
func (c *counter) Rank(uint64) int64       { return 0 }
func (c *counter) Quantile(float64) uint64 { return 0 }
func (c *counter) SpaceBytes() int64       { return 8 }

func bump(s core.Summary) { s.(*counter).n++ }

// TestShardStructsPadded pins the hand-computed blank pad in Cell: the
// live fields must fit the assumed 40 bytes so the struct is exactly
// one CacheLine, and a generation's []Cell therefore never places two
// shards' hot fields on the same line. If a field is added the pad
// constant must be recomputed — this test is the tripwire.
func TestShardStructsPadded(t *testing.T) {
	if s := unsafe.Sizeof(Cell{}); s != CacheLine {
		t.Errorf("Cell is %d bytes, want exactly CacheLine (%d); recompute the blank pad", s, CacheLine)
	}
}

// TestAccessorsReleaseLock checks that every accessor leaves the mutex
// free, both when it returns and when its callback panics: a caller
// that recovers from a summary's panic must not find the shard locked
// forever.
func TestAccessorsReleaseLock(t *testing.T) {
	fail := errors.New("refused")
	calls := []struct {
		name   string
		call   func(c *Cell, fn func(core.Summary))
		panics bool // the accessor runs fn, so a panicking fn reaches it
	}{
		{"Init", func(c *Cell, _ func(core.Summary)) { c.Init(&counter{}) }, false},
		{"Epoch", func(c *Cell, _ func(core.Summary)) { c.Epoch() }, false},
		{"Read", func(c *Cell, fn func(core.Summary)) { c.Read(fn) }, true},
		{"Write", func(c *Cell, fn func(core.Summary)) { c.Write(fn) }, true},
		{"Retire/ok", func(c *Cell, fn func(core.Summary)) {
			c.Retire(func(s core.Summary) error { fn(s); return nil })
		}, true},
		{"Retire/err", func(c *Cell, fn func(core.Summary)) {
			c.Retire(func(s core.Summary) error { fn(s); return fail })
		}, true},
		{"Retire/nil", func(c *Cell, _ func(core.Summary)) { c.Retire(nil) }, false},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			var c Cell
			c.Init(&counter{})
			tc.call(&c, bump)
			if !c.mu.TryLock() {
				t.Fatalf("%s returned with the lock held", tc.name)
			}
			c.mu.Unlock()
			if !tc.panics {
				return
			}
			c = Cell{}
			c.Init(&counter{})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s swallowed its callback's panic", tc.name)
					}
				}()
				tc.call(&c, func(core.Summary) { panic("summary panicked") })
			}()
			if !c.mu.TryLock() {
				t.Fatalf("%s left the lock held after its callback panicked", tc.name)
			}
			c.mu.Unlock()
		})
	}
}

// TestWriteOnRetiredRefuses checks that a retired cell neither runs the
// writer's callback nor counts a write.
func TestWriteOnRetiredRefuses(t *testing.T) {
	var c Cell
	c.Init(&counter{})
	if _, err := c.Retire(nil); err != nil {
		t.Fatal(err)
	}
	ep := c.Epoch()
	called := false
	if c.Write(func(core.Summary) { called = true }) {
		t.Error("Write on a retired cell reported success")
	}
	if called {
		t.Error("Write on a retired cell ran its callback")
	}
	if c.Epoch() != ep {
		t.Errorf("Write on a retired cell moved the epoch %d -> %d", ep, c.Epoch())
	}
}

// TestRetireFailureChangesNothing checks that a refused Retire leaves the
// summary in place, the cell live and the epoch where it was.
func TestRetireFailureChangesNothing(t *testing.T) {
	var c Cell
	s := &counter{n: 3}
	c.Init(s)
	ep := c.Epoch()
	fail := errors.New("refused")
	got, err := c.Retire(func(core.Summary) error { return fail })
	if !errors.Is(err, fail) || got != nil {
		t.Fatalf("failed Retire = (%v, %v), want (nil, %v)", got, err, fail)
	}
	if c.Epoch() != ep {
		t.Errorf("failed Retire moved the epoch %d -> %d", ep, c.Epoch())
	}
	var held core.Summary
	c.Read(func(s core.Summary) { held = s })
	if held != core.Summary(s) {
		t.Errorf("failed Retire replaced the summary: %v", held)
	}
	if !c.Write(bump) || s.n != 4 {
		t.Errorf("cell not writable after a failed Retire (n = %d)", s.n)
	}
}

// TestRetireHandsOutOnce checks that a successful Retire bumps the epoch
// once and returns the summary, and that a second Retire neither runs
// its callback nor returns the summary again.
func TestRetireHandsOutOnce(t *testing.T) {
	var c Cell
	s := &counter{n: 5}
	c.Init(s)
	ep := c.Epoch()
	got, err := c.Retire(func(core.Summary) error { return nil })
	if err != nil || got != core.Summary(s) {
		t.Fatalf("Retire = (%v, %v), want (%v, nil)", got, err, s)
	}
	if c.Epoch() != ep+1 {
		t.Errorf("Retire moved the epoch %d -> %d, want one bump", ep, c.Epoch())
	}
	called := false
	again, err := c.Retire(func(core.Summary) error { called = true; return nil })
	if again != nil || err != nil || called {
		t.Errorf("second Retire = (%v, %v), callback run %v; want (nil, nil) and no call", again, err, called)
	}
	if c.Epoch() != ep+1 {
		t.Errorf("second Retire moved the epoch to %d", c.Epoch())
	}
}
