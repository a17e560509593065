package sharded

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
)

// Query-side machinery shared by CashRegister and Turnstile.
//
// Each shard carries a write epoch, bumped under its lock before every
// mutation. The combined artifact of a query is cached together with
// the generation id, the retired-component version, and the epoch
// vector observed while each shard was read; a later query revalidates
// all three lock-free and reuses the artifact when nothing changed, so
// repeated queries on a quiet container never fold anything and never
// touch the topology lock. Rebuilds run under the topology read lock,
// so a fold never observes a half-drained reshard. A rebuild starts no
// goroutine. What it builds depends on the family, probed once per
// factory (foldCaps):
//
//   - One shard and no frozen components: the shard answers by itself,
//     from its own exact snapshot when it has one, and otherwise under
//     its lock (the dyadic sketches, GKBiased). Nothing is copied or
//     merged. The goroutine-safe wrappers are such containers (Sole).
//   - Run-listing families (core.RunLister: KLL, MRL99, Random, the GK
//     tuple summaries, q-digest, Windowed): each shard's runs are
//     copied under that shard's lock, with its epoch, and one
//     core.FoldRuns merges them, with the runs of every run-listing
//     frozen component, into one snapshot. No lock is held during the
//     merge, and the shards need not merge as summaries: differently
//     seeded shards, GK shards and frozen finer-ε components fold the
//     same way. The sampling families list their samples; GK lists each
//     tuple with its share of the rank estimate, and q-digest each node
//     split into halves at its two ends, so the fold's rank is the sum
//     of the shards' own rank estimates.
//   - Linear families (core.Linear: the dyadic sketches): one target
//     sketch with zeroed counters absorbs every shard in turn, each
//     added under its own lock. Equally seeded linear sketches sum to
//     the sketch of the union, so the target's counters, and every
//     answer, equal the unsharded sketch's. The target is recycled
//     from the previous entry once no reader holds it (see pin), so a
//     re-fold builds no fresh summary.
//
// Everything else (GKBiased at P > 1) has no cached artifact: queries
// sum the live shards' rank estimates, and quantiles invert that sum by
// a bitwise descent (rankQuantile).
//
// Accuracy. A rank over the union of the shards' listed runs is the sum
// of the parts' rank estimates, so its error is the sum of theirs, and
// the fold adds no compaction on top. For the sampling families and
// q-digest each part errs by at most εᵢnᵢ, so the fold errs by at most
// Σᵢ εᵢnᵢ ≤ εn, where ε is the largest budget in play (EpsBudget). A GK
// midpoint estimate is uncertain by the ⌊2εᵢnᵢ⌋ capacity of the gap a
// probe falls into, plus one for its −1 bias, so a GK fold errs by at
// most Σᵢ(2εᵢnᵢ + 1) ≤ 2εn + parts, where parts counts the live shards
// plus the components frozen by elastic operations. The live descent
// inverts its summed estimate within the same bounds.

// foldCaps records what query artifacts a factory's summaries support,
// probed once per factory (construction, Retarget, decode).
type foldCaps struct {
	// mergeable: the factory's summaries fold into one via
	// core.Mergeable. linear: they also sum into a reset target
	// (core.Linear). snapAll: they flatten exactly via
	// core.Snapshotter. runs: they list their samples as sorted runs
	// (core.RunLister).
	mergeable bool
	linear    bool
	snapAll   bool
	runs      bool
}

// probeCaps probes a factory against two throwaway instances, so the
// probe merge cannot perturb live shards. It is also where a factory
// is vetted: a nil one, or one that builds a nil summary, is rejected
// here rather than panicking at the first write.
func probeCaps(fresh func() core.Summary) (foldCaps, error) {
	if fresh == nil {
		return foldCaps{}, errors.New("sharded: nil factory")
	}
	a, b := fresh(), fresh()
	if a == nil || b == nil {
		return foldCaps{}, errors.New("sharded: factory returned a nil summary")
	}
	caps := capsOf(a)
	if m, ok := a.(core.Mergeable); ok {
		caps.mergeable = m.MergeSummary(b) == nil
	}
	_, linear := a.(core.Linear)
	caps.linear = caps.mergeable && linear
	return caps, nil
}

// capsOf reports the capabilities one instance shows by its type alone.
func capsOf(s core.Summary) foldCaps {
	var caps foldCaps
	_, caps.snapAll = s.(core.Snapshotter)
	_, caps.runs = s.(core.RunLister)
	return caps
}

// epsReporter is implemented by summaries that expose their error
// budget; elastic operations use it to compare budgets across a
// Retarget and to report the composed budget (EpsBudget).
type epsReporter interface{ Eps() float64 }

// queryCache holds the epoch-keyed combined artifact.
type queryCache struct {
	mu  sync.Mutex // serializes rebuilds
	cur atomic.Pointer[combinedEntry]
	// spare is the retired linear entry whose target the next linear
	// rebuild may recycle (see rebuildLinear).
	spare *combinedEntry // guarded by mu
}

// invalidate drops the cached fold. Elastic operations call it under
// the topology write lock; readers that raced past the generation swap
// are still safe because validFor rechecks the generation id.
func (q *queryCache) invalidate() { q.cur.Store(nil) }

// combinedEntry is one cached fold of the whole container. Exactly one
// of two artifact shapes is populated:
//
//   - qs: one exact snapshot, the lone shard's own or the run fold.
//     Queries never touch a summary, which matters for the families
//     whose queries flush.
//   - sum: the counter sum of the dyadic sketches, queried directly
//     (their queries are pure reads).
//
// comps carries the frozen components the artifact does not cover;
// when present, ranks add their contribution and quantiles go through
// the rank descent over the combined estimate.
//
// All artifacts are immutable while readers can reach them, so queries
// are lock-free. A reader that loaded an entry just before the epoch
// bump may still be mid-query, so a retired entry's arrays stay
// untouched until the GC reclaims them — with one exception: a sum
// entry's target is recycled by a later rebuild, and readers pin such
// an entry (pin, release) so that no rebuild resets a target while a
// reader still queries it. Snapshot entries are never recycled and
// never pinned. Pooling elsewhere on this path is confined to per-call
// scratch (core.FoldRuns, descentPool, rankBufPool), which never
// escapes its function.
type combinedEntry struct {
	genID  uint64   // topology generation at fold time
	retVer uint64   // retired-component version at fold time
	epochs []uint64 // per-shard write epoch at fold time
	n      int64    // combined count at fold time (components included)
	qs     *core.QuerySnapshot
	sum    core.Summary
	comps  []*retiredComp
	// pins counts the readers that hold a sum entry.
	pins atomic.Int32
}

// entry returns a fold of the container valid for its current topology
// and epochs, rebuilding at most once per write generation; nil when
// the family has no cached artifact (a lone shard without a snapshot,
// or GKBiased) and the caller must query the live shards itself. The
// entry comes pinned: the caller queries it, then calls release.
func (q *queryCache) entry(c *container) *combinedEntry {
	if e := q.cur.Load(); e != nil && e.validFor(c) && q.pin(e) {
		return e
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	// Under q.mu no rebuild can retire the current entry (invalidate
	// needs the topology write lock), so these pins always hold.
	if e := q.cur.Load(); e != nil && e.validFor(c) && q.pin(e) {
		return e // another query rebuilt first
	}
	g := c.gen.Load()
	comps := c.ret.comps
	var e *combinedEntry
	switch {
	case len(g.shards) == 1 && len(comps) == 0:
		if g.caps.snapAll {
			e = rebuildSole(g)
		}
	case g.caps.runs:
		e = rebuildRuns(g, comps)
	case g.caps.linear:
		e = rebuildLinear(g, q.spare)
		q.spare = nil
		if e != nil {
			e.comps = comps
		}
	}
	if e == nil {
		return nil
	}
	e.genID = g.id
	e.retVer = c.ret.ver.Load()
	for _, comp := range e.comps {
		e.n += comp.n
	}
	if old := q.cur.Load(); old != nil && old.sum != nil {
		q.spare = old
	}
	q.cur.Store(e)
	q.pin(e)
	return e
}

// pin makes e safe to query until release. Only a sum entry needs it:
// a rebuild recycles the target of a retired sum entry, but only after
// reading its pin count as 0, and an entry retires only when a newer
// one is published. The reader raises the count before it checks that
// e is still current, so either the rebuild sees the pin and builds a
// fresh target, or the reader sees e retired, drops the pin and takes
// the rebuild path. pin reports whether e may be queried.
func (q *queryCache) pin(e *combinedEntry) bool {
	if e.sum == nil {
		return true
	}
	e.pins.Add(1)
	if q.cur.Load() == e {
		return true
	}
	e.pins.Add(-1)
	return false
}

// release ends a query pinned by entry.
func (e *combinedEntry) release() {
	if e.sum != nil {
		e.pins.Add(-1)
	}
}

// validFor reports whether nothing observable changed since the fold:
// same topology generation, same retired components, and no shard
// written. The epoch vector is per-shard consistent (each entry was
// read under its shard's lock at the moment that shard was folded), so
// a full match means the fold equals one performed now. Generations are
// immutable, so a matching genID guarantees the epoch vector indexes
// the same shard array it was built from.
func (e *combinedEntry) validFor(c *container) bool {
	g := c.gen.Load()
	if g.id != e.genID || c.ret.ver.Load() != e.retVer {
		return false
	}
	for i, ep := range e.epochs {
		if g.shards[i].Epoch() != ep {
			return false
		}
	}
	return true
}

// rebuildRuns folds a run-listing generation into one snapshot: every
// live shard's runs, copied under that shard's lock, and the runs of
// every frozen component that lists them, merged by one core.FoldRuns
// with no lock held. The components that list no runs are left for
// queries to add by rank. Every shard of a generation has the type its
// capabilities were probed on, so every shard lists runs.
func rebuildRuns(g *generation, comps []*retiredComp) *combinedEntry {
	e := &combinedEntry{epochs: make([]uint64, len(g.shards))}
	e.qs = core.FoldRuns(func(rs *core.Runs) {
		for i := range g.shards {
			e.epochs[i] = g.shards[i].Read(func(s core.Summary) {
				rs.CopyRuns(s.(core.RunLister))
				e.n += s.Count()
			})
		}
		for _, comp := range comps {
			if !comp.copyRuns(rs) {
				e.comps = append(e.comps, comp)
				continue
			}
			e.n += comp.n
		}
	})
	return e
}

// rebuildSole flattens a lone shard into its own exact snapshot, which
// answers by itself.
func rebuildSole(g *generation) *combinedEntry {
	e := &combinedEntry{epochs: make([]uint64, 1)}
	e.epochs[0] = g.shards[0].Read(func(s core.Summary) {
		e.n = s.Count()
		e.qs = core.BuildQuerySnapshot(s.(core.Snapshotter))
	})
	return e
}

// rebuildLinear folds a linear generation by one counter sum into a
// target: the spare entry's when it was built for this generation and
// no reader holds it (its counters are reset first), a fresh summary
// otherwise. The caller holds the cache's rebuild lock and drops the
// spare, whose target this entry may now own.
func rebuildLinear(g *generation, spare *combinedEntry) *combinedEntry {
	var sum core.Summary
	if spare != nil && spare.genID == g.id && spare.pins.Load() == 0 {
		sum = spare.sum
		sum.(core.Linear).Reset()
	} else {
		sum = g.fresh()
	}
	e := &combinedEntry{epochs: make([]uint64, len(g.shards)), sum: sum}
	if sumShards(g, sum.(core.Linear), e.epochs) != nil {
		return nil
	}
	e.n = sum.Count()
	return e
}

// sumShards adds every shard of g into target (zeroed counters), one
// shard at a time under that shard's lock, recording in epochs the
// write epoch read with each. The target then holds the sketch of the
// whole stream.
func sumShards(g *generation, target core.Linear, epochs []uint64) error {
	for i := range g.shards {
		var err error
		epochs[i] = g.shards[i].Read(func(s core.Summary) { err = target.MergeSummary(s) })
		if err != nil {
			return fmt.Errorf("sharded: shard %d sum failed: %w", i, err)
		}
	}
	return nil
}

// baseRank answers a combined rank query from the live-shard artifact.
func (e *combinedEntry) baseRank(x uint64) int64 {
	if e.qs != nil {
		return e.qs.Rank(x)
	}
	return e.sum.Rank(x)
}

// rank answers a combined rank query from the fold, frozen components
// included.
func (e *combinedEntry) rank(x uint64) int64 {
	r := e.baseRank(x)
	for _, c := range e.comps {
		r += c.rank(x)
	}
	return r
}

// rankBatch answers a batch of combined rank queries from the fold.
func (e *combinedEntry) rankBatch(xs []uint64) []int64 {
	if len(e.comps) == 0 {
		if e.qs != nil {
			return e.qs.RankBatch(xs)
		}
		if e.sum != nil {
			return core.RankBatch(e.sum, xs)
		}
	}
	return e.appendRankBatch(make([]int64, 0, len(xs)), xs)
}

// appendRankBatch sums the fold's ranks (components included) into dst
// (reusing its capacity), for callers on the zero-allocation descent
// path.
func (e *combinedEntry) appendRankBatch(dst []int64, xs []uint64) []int64 {
	for _, x := range xs {
		dst = append(dst, e.baseRank(x))
	}
	for _, c := range e.comps {
		for i, x := range xs {
			dst[i] += c.rank(x)
		}
	}
	return dst
}

// quantile answers a combined quantile query from the fold. With frozen
// components in play the artifact only covers the live shards, so the
// answer comes from the rank descent over the combined estimate.
func (e *combinedEntry) quantile(phi float64) uint64 {
	if len(e.comps) == 0 {
		if e.qs != nil {
			return e.qs.Quantile(phi)
		}
		if e.sum != nil {
			return e.sum.Quantile(phi)
		}
	}
	return rankQuantile(e.n, e.rank, phi)
}

// quantileBatch answers a batch of combined quantile queries from the
// fold.
func (e *combinedEntry) quantileBatch(phis []float64) []uint64 {
	if len(e.comps) == 0 {
		if e.qs != nil {
			return e.qs.QuantileBatch(phis)
		}
		if e.sum != nil {
			return core.QuantileBatch(e.sum, phis)
		}
	}
	// The descent probes rankBatch once per bit level; routing the
	// probes through one pooled buffer turns 64 per-level allocations
	// into zero. The buffer never escapes: appendRankBatch's result is
	// consumed inside rankQuantileBatch before the next probe.
	bp := rankBufPool.Get().(*[]int64)
	buf := *bp
	out := rankQuantileBatch(e.n, func(xs []uint64) []int64 {
		buf = e.appendRankBatch(buf[:0], xs)
		return buf
	}, phis)
	*bp = buf
	rankBufPool.Put(bp)
	return out
}

// rankBufPool recycles the descent's per-level rank buffer across
// quantileBatch calls (Get and Put in the same function; a lost Put
// reads as an extra allocation in TestSteadyStateAllocations).
var rankBufPool = sync.Pool{New: func() any { return new([]int64) }}

// rankQuantile inverts a summed rank estimate by a bitwise descent: the
// largest v with R(v) ≤ target. Under the core contract R(v) estimates
// #{y < v}, so a value v occupies the rank span [R(v), R(v+1)) and the
// descent lands on the value whose span holds the target — including a
// heavy duplicate atom, whose span absorbs every target inside it. R
// tracks the true (monotone) combined rank within the summed per-shard
// estimate error E, so the result's rank interval intersects
// [target−E, target+E] — for the GK family E ≤ Σᵢ(2εᵢnᵢ+1) ≤ 2εn +
// parts, and in practice far tighter. The descent is only as sound as
// the contract: a summary that counts x's own occurrences into Rank(x)
// shifts every atom's span and drags the answer below it (the
// duplicate-atom regression tests pin this).
func rankQuantile(n int64, rank func(uint64) int64, phi float64) uint64 {
	if n <= 0 {
		panic(core.ErrEmpty)
	}
	target := core.TargetRank(phi, n)
	var v uint64
	for bit := 63; bit >= 0; bit-- {
		cand := v | uint64(1)<<bit
		// Accept the bit iff rank(cand) <= target, branch-free: ranks
		// and targets are in [0, n], so the difference cannot overflow
		// and its sign bit after the -1 is exactly the comparison.
		keep := uint64((rank(cand) - target - 1) >> 63)
		v |= (uint64(1) << bit) & keep
	}
	return v
}

// rankQuantileBatch runs k descents in lockstep — one rankBatch probe
// set per bit level instead of one rank probe per (query, level) — so a
// batch over live shards costs 64 lock sweeps total rather than 64 per
// fraction. Each query's probe sequence is exactly its solo descent, so
// results are byte-identical to per-φ rankQuantile.
func rankQuantileBatch(n int64, rankBatch func([]uint64) []int64, phis []float64) []uint64 {
	if n <= 0 {
		panic(core.ErrEmpty)
	}
	k := len(phis)
	sp := descentPool.Get().(*descentScratch)
	targets, cands := sp.targets, sp.cands
	if cap(targets) < k {
		targets = make([]int64, k)
	}
	if cap(cands) < k {
		cands = make([]uint64, k)
	}
	targets, cands = targets[:k], cands[:k]
	for i, phi := range phis {
		targets[i] = core.TargetRank(phi, n)
	}
	vs := make([]uint64, k) // escapes: this is the result
	for bit := 63; bit >= 0; bit-- {
		for i, v := range vs {
			cands[i] = v | uint64(1)<<bit
		}
		rs := rankBatch(cands)
		for i := range vs {
			// Same branch-free accept as rankQuantile's solo descent.
			keep := uint64((rs[i] - targets[i] - 1) >> 63)
			vs[i] |= (cands[i] ^ vs[i]) & keep
		}
	}
	sp.targets, sp.cands = targets, cands
	descentPool.Put(sp)
	return vs
}

// descentScratch holds rankQuantileBatch's per-call probe arrays; the
// pool keeps repeated batch extractions allocation-free apart from the
// returned values.
type descentScratch struct {
	targets []int64
	cands   []uint64
}

var descentPool = sync.Pool{New: func() any { return new(descentScratch) }}
