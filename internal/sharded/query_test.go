package sharded

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/dyadic"
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

	// A linear fold recycles the target of the entry two rebuilds back,
	// unless a reader still holds that entry: a pinned entry's counters
	// stay exactly as they were across two rebuilds.
	ts, err := NewTurnstile(3, dcsFactory(16))
	if err != nil {
		t.Fatal(err)
	}
	ts.InsertBatch(turnData(20000, 16))
	ts.Quantile(0.5)
	e := ts.q.cur.Load()
	if e == nil || !e.linear || e.sum == nil {
		t.Fatal("DCS: no cached linear sum after a query")
	}
	if !ts.q.pin(e) {
		t.Fatal("DCS: the current entry refused a pin")
	}
	kept := marshalSum(t, e)
	ts.Insert(1)
	ts.Quantile(0.5)
	e2 := ts.q.cur.Load()
	ts.Insert(2)
	ts.Quantile(0.5)
	if e3 := ts.q.cur.Load(); e3.sum == e.sum || e3.sum == e2.sum {
		t.Fatal("DCS: a rebuild recycled a pinned or current target")
	}
	if !bytes.Equal(marshalSum(t, e), kept) {
		t.Fatal("DCS: a pinned entry's counters changed across two rebuilds")
	}
	e.release()
	ts.Insert(3)
	ts.Quantile(0.5)
	if ts.q.cur.Load().sum != e2.sum {
		t.Fatal("DCS: the rebuild after the pins were released did not recycle the spare target")
	}

	// A reader that loaded an entry but pins it only after two
	// rebuilds holds a target that now backs the current entry, where
	// the next rebuild may reset it: the pin must be refused and leave
	// no count behind.
	e = ts.q.cur.Load()
	ts.Insert(4)
	ts.Quantile(0.5)
	ts.Insert(5)
	ts.Quantile(0.5)
	if ts.q.cur.Load().sum != e.sum {
		t.Fatal("DCS: the second rebuild did not recycle the unpinned target")
	}
	if ts.q.pin(e) {
		t.Fatal("DCS: a retired entry accepted a pin")
	}
	if n := e.pins.Load(); n != 0 {
		t.Fatalf("DCS: a refused pin left the count at %d", n)
	}
}

// dcsFactory returns a DCS factory over [0, 2^bits) whose lower levels
// are sketched and whose upper levels are exact.
func dcsFactory(bits int) func() core.Turnstile {
	return func() core.Turnstile { return dyadic.New(dyadic.DCS, 0.05, bits, dyadic.Config{Seed: 5}) }
}

// turnData is a deterministic skewed stream over [0, 2^bits).
func turnData(n, bits int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		v := uint64(i) * 2654435761 % (1 << bits)
		xs[i] = v * v >> bits // squaring skews toward 0
	}
	return xs
}

// marshalSum encodes a linear entry's target.
func marshalSum(t *testing.T, e *combinedEntry) []byte {
	t.Helper()
	b, err := e.sum.(*dyadic.Sketch).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLinearFoldExact pins the counter-sum fold of the dyadic sketches
// against an unsharded twin fed the same stream of inserts and
// deletes, through a Reshard to 2P and back: every answer is equal,
// and so are the folded counters, byte for byte.
func TestLinearFoldExact(t *testing.T) {
	const bits = 16
	data := turnData(30000, bits)
	kinds := []dyadic.Kind{dyadic.DCM, dyadic.DCS, dyadic.DRSS}
	phis := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
	probes := []uint64{0, 1, 7, 100, 1000, 4095, 20000, 40000, 65535, 1 << bits}
	for _, kind := range kinds {
		fresh := func() core.Turnstile { return dyadic.New(kind, 0.05, bits, dyadic.Config{Seed: 9}) }
		for _, p := range []int{2, 4, 8} {
			twin := fresh()
			c, err := NewTurnstile(p, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !c.gen.Load().caps.linear {
				t.Fatalf("%v: the dyadic family is not probed as linear", kind)
			}
			check := func(stage string) {
				t.Helper()
				for _, phi := range phis {
					if got, want := c.Quantile(phi), twin.Quantile(phi); got != want {
						t.Fatalf("%v P=%d %s: Quantile(%v) = %d, unsharded %d", kind, p, stage, phi, got, want)
					}
				}
				if got, want := c.QuantileBatch(phis), core.QuantileBatch(twin, phis); !slices.Equal(got, want) {
					t.Fatalf("%v P=%d %s: QuantileBatch = %v, unsharded %v", kind, p, stage, got, want)
				}
				for _, x := range probes {
					if got, want := c.Rank(x), twin.Rank(x); got != want {
						t.Fatalf("%v P=%d %s: Rank(%d) = %d, unsharded %d", kind, p, stage, x, got, want)
					}
				}
				if got, want := c.RankBatch(probes), core.RankBatch(twin, probes); !slices.Equal(got, want) {
					t.Fatalf("%v P=%d %s: RankBatch = %v, unsharded %v", kind, p, stage, got, want)
				}
				want, err := twin.(*dyadic.Sketch).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if got := marshalSum(t, c.q.cur.Load()); !bytes.Equal(got, want) {
					t.Fatalf("%v P=%d %s: folded counters differ from the unsharded sketch", kind, p, stage)
				}
			}
			// Both sides see the same operations in the same order; the
			// sharded side mixes batched and single-element paths.
			ins := func(xs []uint64) {
				c.InsertBatch(xs)
				core.InsertBatch(twin, xs)
			}
			del := func(xs []uint64) {
				for _, x := range xs[:len(xs)/2] {
					c.Delete(x)
				}
				c.DeleteBatch(xs[len(xs)/2:])
				core.DeleteBatch(twin, xs)
			}
			ins(data[:20000])
			del(data[5000:9000])
			check("generation 0")
			if err := c.Reshard(2 * p); err != nil {
				t.Fatal(err)
			}
			check("after Reshard(2P)")
			ins(data[20000:])
			del(data[:3000])
			check("writes at 2P")
			if err := c.Reshard(p); err != nil {
				t.Fatal(err)
			}
			del(data[20000:25000])
			check("back at P")
			if err := c.Invariants(); err != nil {
				t.Fatalf("%v P=%d: %v", kind, p, err)
			}
		}
	}
}

// TestLinearFoldRecyclingRace queries a sharded DCS from two readers
// while a writer toggles one element in and out, so rebuilds recycle
// targets all the time. Every fold sees one shard at a time and the
// element lives on one shard, so each answer must be the unsharded
// answer with or without that element — a reader whose target was
// reset under it would see neither (and the race detector flags the
// overlap).
func TestLinearFoldRecyclingRace(t *testing.T) {
	const bits, toggles = 16, 300
	data := turnData(20000, bits)
	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	probes := []uint64{10, 300, 2000, 9000, 30000, 60000}
	twin := dcsFactory(bits)()
	core.InsertBatch(twin, data)
	x := data[17]
	ranksOut, qsOut := core.RankBatch(twin, probes), core.QuantileBatch(twin, phis)
	twin.Insert(x)
	ranksIn, qsIn := core.RankBatch(twin, probes), core.QuantileBatch(twin, phis)

	c, err := NewTurnstile(2, dcsFactory(bits))
	if err != nil {
		t.Fatal(err)
	}
	c.InsertBatch(data)
	var done sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rs := c.RankBatch(probes); !slices.Equal(rs, ranksOut) && !slices.Equal(rs, ranksIn) {
					errs <- "RankBatch matches neither state"
					return
				}
				if qs := c.QuantileBatch(phis); !slices.Equal(qs, qsOut) && !slices.Equal(qs, qsIn) {
					errs <- "QuantileBatch matches neither state"
					return
				}
			}
		}()
	}
	for i := 0; i < toggles; i++ {
		c.Insert(x)
		c.Rank(0) // fold here too, so rebuilds overlap the readers
		c.Delete(x)
		c.Rank(0)
	}
	close(stop)
	done.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
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
