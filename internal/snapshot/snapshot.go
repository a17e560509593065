// Package snapshot provides single-goroutine caching of flattened
// query snapshots (core.QuerySnapshot) and approximate grid snapshots
// for the families without an exact flattening.
//
// The concurrent cache lives with the containers: every sharded
// container, and the goroutine-safe wrappers built on a one-shard
// container, keep one epoch-keyed combined snapshot that readers reuse
// lock-free until a shard is written (see internal/sharded and
// DESIGN.md "Query snapshots"). Cached here is the single-goroutine
// counterpart for query-heavy loops: it owns its snapshot outright, so
// it can rebuild into the same columns.
package snapshot

import (
	"streamquantiles/internal/core"
)

// AppendGrid overwrites qs with an approximate snapshot of an arbitrary
// summary, probing it on the even φ-grid of spacing gridEps and reusing
// qs's slice capacity: the families without an exact flattening (the
// dyadic sketches, whose per-level state cannot collapse into one
// sorted array, and GKBiased, whose extraction bound depends on the
// queried rank) can still trade freshness for O(log(1/gridEps))
// repeated queries. Answers carry the summary's ε plus at most
// gridEps·n additional rank error — callers choose gridEps accordingly
// (ε/2 halves are the usual choice). Grid snapshots are opt-in: they
// change answers, so nothing routes through them implicitly. Callers
// own the single-writer protocol: qs must not be visible to concurrent
// readers during the rebuild.
func AppendGrid(qs *core.QuerySnapshot, s core.Summary, gridEps float64) {
	core.CheckEps(gridEps)
	qs.Reset()
	n := s.Count()
	qs.N = n
	if n <= 0 {
		return
	}
	phis := core.EvenPhis(gridEps)
	vals := core.QuantileBatch(s, phis)
	for i, v := range vals {
		key := core.TargetRank(phis[i], n)
		// Quantile rule: answer the first grid point whose target rank
		// reaches the queried target (key+1 > t ⇔ key ≥ t).
		qs.QVals = append(qs.QVals, v)
		qs.QKeys = append(qs.QKeys, key+1)
		// Rank rule: the target rank of the largest grid value < x.
		qs.RVals = append(qs.RVals, v)
		qs.RRanks = append(qs.RRanks, key)
	}
	qs.RStrict = true
}

// Cached is a single-goroutine caching view of a summary for
// query-heavy loops (benchmarks, batch report generation): it builds a
// snapshot on first query — exact when the summary implements
// core.Snapshotter, grid-based otherwise — and reuses it until the
// caller signals a write with Invalidate. For concurrent use, wrap the
// summary in a Safe* wrapper instead, whose container keeps an
// epoch-keyed snapshot under its own locks.
// Being single-goroutine is also what lets Cached recycle: Invalidate
// only marks the snapshot stale, and the next query rebuilds *into the
// same QuerySnapshot*, reusing its column capacity — the allocation-free
// invalidate/rebuild cycle the concurrent cache must forgo (its retired
// snapshots may still be read lock-free).
type Cached struct {
	s       core.Summary
	gridEps float64
	qs      *core.QuerySnapshot
	stale   bool
}

// NewCached wraps s. gridEps bounds the extra rank error accepted for
// summaries without an exact flattening; it is unused when s implements
// core.Snapshotter.
func NewCached(s core.Summary, gridEps float64) *Cached {
	core.CheckEps(gridEps)
	return &Cached{s: s, gridEps: gridEps}
}

// Exact reports whether the cached snapshot reproduces the summary's
// answers bit for bit.
func (c *Cached) Exact() bool {
	_, ok := c.s.(core.Snapshotter)
	return ok
}

// Invalidate marks the snapshot stale; the next query rebuilds in
// place, reusing the retired snapshot's capacity.
func (c *Cached) Invalidate() { c.stale = true }

func (c *Cached) snapshot() *core.QuerySnapshot {
	if c.qs == nil {
		c.qs = new(core.QuerySnapshot)
		c.stale = true
	}
	if c.stale {
		if ss, ok := c.s.(core.Snapshotter); ok {
			ss.AppendQuerySnapshot(c.qs)
		} else {
			AppendGrid(c.qs, c.s, c.gridEps)
		}
		c.stale = false
	}
	return c.qs
}

// Quantile answers from the snapshot.
func (c *Cached) Quantile(phi float64) uint64 { return c.snapshot().Quantile(phi) }

// QuantileBatch answers from the snapshot.
func (c *Cached) QuantileBatch(phis []float64) []uint64 { return c.snapshot().QuantileBatch(phis) }

// Rank answers from the snapshot.
func (c *Cached) Rank(x uint64) int64 { return c.snapshot().Rank(x) }

// Count reports the live summary's count (snapshot N is the quantile
// target base, which for the sampling families is the total sample
// weight, not n).
func (c *Cached) Count() int64 { return c.s.Count() }
