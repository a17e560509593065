package sharded

import (
	"slices"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
)

// listHook is a KLL sketch that runs a hook whenever its runs are
// listed, letting a test land a write while a fold is in flight.
type listHook struct {
	*kll.Sketch
	onList func()
}

func (h *listHook) ListRuns(rs *core.Runs) {
	if h.onList != nil {
		h.onList()
	}
	h.Sketch.ListRuns(rs)
}

func feed(c *CashRegister, n int) {
	xs := make([]uint64, 100)
	for i := 0; i < n; i += len(xs) {
		for j := range xs {
			xs[j] = uint64((i + j) * 7919 % 100003)
		}
		c.UpdateBatch(xs)
	}
}

// TestQueryCacheProtocol walks the epoch protocol of the one query
// cache: queries on a quiet container reuse one entry, a write retires
// it, the next query rebuilds — and the retired entry's snapshot stays
// exactly as it was, since lock-free readers may still hold it.
func TestQueryCacheProtocol(t *testing.T) {
	for _, p := range []int{1, 3} {
		c, err := NewCashRegister(p, func() core.CashRegister { return kll.New(0.01, 7) })
		if err != nil {
			t.Fatal(err)
		}
		if c.q.cur.Load() != nil {
			t.Fatal("a fresh container holds a cached entry")
		}
		feed(c, 20000)
		c.Quantile(0.5)
		e := c.q.cur.Load()
		if e == nil || e.qs == nil {
			t.Fatalf("P=%d: no cached snapshot after a query", p)
		}
		kept := slices.Clone(e.qs.QVals)
		keptKeys := slices.Clone(e.qs.QKeys)
		c.QuantileBatch([]float64{0.1, 0.9})
		c.Rank(500)
		if c.q.cur.Load() != e {
			t.Fatalf("P=%d: queries on a quiet container rebuilt the entry", p)
		}
		c.Update(1)
		if e.validFor(&c.container) {
			t.Fatalf("P=%d: the entry survived a write", p)
		}
		c.Quantile(0.5)
		if next := c.q.cur.Load(); next == e || !next.validFor(&c.container) {
			t.Fatalf("P=%d: the query after a write did not rebuild", p)
		}
		if !slices.Equal(e.qs.QVals, kept) || !slices.Equal(e.qs.QKeys, keptKeys) {
			t.Fatalf("P=%d: a retired snapshot changed", p)
		}
	}
}

// TestQueryCacheRebuildRace lands a write on shard 0 while the run fold
// is copying shard 1. The fold read shard 0's epoch together with its
// runs, before the write, so the entry it stores is already stale: the
// next query must rebuild and see the write.
func TestQueryCacheRebuildRace(t *testing.T) {
	var hooks []*listHook
	c, err := NewCashRegister(2, func() core.CashRegister {
		h := &listHook{Sketch: kll.New(0.01, 7)}
		hooks = append(hooks, h)
		return h
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(c, 20000)
	const top = 1 << 40
	shard1 := hooks[len(hooks)-1] // the last factory call built shard 1
	shard1.onList = func() {
		shard1.onList = nil
		c.deliver(0, []uint64{top}) // shard 0 is unlocked: a real write
	}
	before := c.Rank(top + 1)
	if c.q.cur.Load().validFor(&c.container) {
		t.Fatal("the entry built across a write validates")
	}
	if after := c.Rank(top + 1); after != before+1 {
		t.Fatalf("Rank after the mid-fold write = %d, want %d", after, before+1)
	}
}

// TestRunFoldCoversComponents pins which parts the run fold covers: the
// live shards whether or not they merge as summaries (here KLL shards
// of differing ε, which do not), and every frozen
// component that lists runs. Only components that list none (here a GK
// summary frozen under a KLL generation) are left to the additive rank
// combination and its rank descent.
func TestRunFoldCoversComponents(t *testing.T) {
	var k float64
	c, err := NewCashRegister(3, func() core.CashRegister { k++; return kll.New(0.01/k, 7) })
	if err != nil {
		t.Fatal(err)
	}
	if c.Mergeable() {
		t.Fatal("KLL shards of differing ε merge as summaries")
	}
	feed(c, 20000)
	if err := c.Retarget(func() core.CashRegister { return kll.New(0.001, 7) }); err != nil {
		t.Fatal(err)
	}
	feed(c, 20000)
	c.Quantile(0.5)
	e := c.q.cur.Load()
	if c.Components() != 3 || e.qs == nil || len(e.comps) != 0 || e.qs.N != c.Count() {
		t.Fatalf("components %d: fold covers N=%d of %d with %d components left over, want all of them folded",
			c.Components(), e.qs.N, c.Count(), len(e.comps))
	}

	g, err := NewCashRegister(2, func() core.CashRegister { return gk.NewArray(0.01) })
	if err != nil {
		t.Fatal(err)
	}
	feed(g, 10000)
	if err := g.Retarget(func() core.CashRegister { return kll.New(0.01, 7) }); err != nil {
		t.Fatal(err)
	}
	feed(g, 10000)
	g.Quantile(0.5)
	e = g.q.cur.Load()
	if g.Components() != 2 || e.qs == nil || len(e.comps) != 2 {
		t.Fatalf("GK components under a KLL generation: %d components, %d left to the additive combination, want 2",
			g.Components(), len(e.comps))
	}
}
