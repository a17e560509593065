// Package sharded scales ingestion across cores by partitioning a
// stream over P independent per-shard summaries, each behind its own
// mutex — there is no global lock anywhere on the write path, so P
// writers on P cores ingest with no coherence traffic beyond their own
// shard.
//
// Correctness rests on the summaries' stream-order insensitivity:
//
//   - Cash-register summaries: any partition of an insert-only stream
//     is itself a valid insert-only stream, so each shard is a valid
//     summary of its share and batches route round-robin.
//   - Turnstile summaries: elements route by value affinity (a mixed
//     hash of the element), so an element's deletions always land on
//     the shard that saw its insertions and every shard individually
//     stays in the strict turnstile model.
//
// Queries combine the shards within the composed error bound
// Σ εᵢnᵢ ≤ εn: the sampling summaries that list sorted runs (KLL,
// MRL99, Random) fold into one snapshot by a single merge of every
// shard's runs; the dyadic linear sketches sum their counters into one
// reused target sketch, exactly the unsharded sketch, which answers
// directly; q-digest merges into one fresh summary; the rest (the GK
// family) combine by additive rank estimation — the summed per-shard
// rank estimate tracks the true combined rank everywhere within the
// summed estimate errors (at most 2εn + P for GK's midpoint estimator,
// far less in practice), and a 64-bit bitwise descent over the value
// domain inverts it. A lone shard
// answers by itself, which makes a one-shard container (Sole) the
// engine of the goroutine-safe wrappers.
//
// The fold itself is cached: capabilities are probed once per factory,
// every shard carries a write epoch, and the combined artifact is
// reused lock-free across queries until some shard is written again —
// see query.go.
//
// # Elasticity
//
// The shard topology is no longer fixed at construction: Reshard
// grows or shrinks P and Retarget migrates the container to a new
// factory (typically a new ε) — both online, without stopping
// ingestion. The topology lives in an immutable generation value
// behind an atomic pointer; an elastic operation builds the successor
// generation, swaps the pointer, and drains the retired shards into it
// (by MERGE for mergeable families, by adoption or by freezing the
// summary as a query-time rank component for the GK family). Writers
// never take a global lock: a writer that catches a shard mid-retire
// simply re-routes against the successor generation, so ingestion is
// blocked at most for one shard drain. Queries that must see a stable
// topology (fold rebuilds, aggregates, the codec) take a read lock
// that elastic operations hold exclusively — see elastic.go and
// DESIGN.md "Elasticity".
package sharded

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded/cell"
)

// checkShards validates a shard count, shared by constructors and
// Reshard.
func checkShards(p int) error {
	if p < 1 {
		return fmt.Errorf("sharded: shard count %d < 1", p)
	}
	return nil
}

// mix is the SplitMix64 finalizer: a bijective mix that spreads
// value-affinity routing evenly across shards even for clustered keys.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// invariantChecker is implemented by every registered summary (the
// root package's Checkable contract); shards that provide it are
// deep-checked by Invariants.
type invariantChecker interface{ Invariants() error }

// generation is one immutable shard topology: the shard array, the
// factory that populated it (nil for a Sole container, which never
// reshards, retargets by factory or decodes a frame), and the probed
// fold capabilities. A generation's fields never change after
// publication; elastic operations build a successor and swap the
// container's pointer.
//
// A turnstile's generation 0 routes by value affinity, so every shard
// individually obeys the strict turnstile model. After a Reshard the
// routing modulus changes: an element's pre-reshard insertions were
// merged into one shard while its post-reshard deletions route by the
// new modulus, so a single shard's stream may go negative even though
// the whole container never does. Post-reshard turnstile generations
// therefore answer invariant checks through the merged fold (exact for
// the linear sketches), not per shard — see Turnstile.Invariants.
type generation struct {
	id     uint64
	shards []cell.Cell
	fresh  func() core.Summary
	caps   foldCaps
}

func newGeneration(id uint64, p int, fresh func() core.Summary, caps foldCaps) *generation {
	g := &generation{id: id, shards: make([]cell.Cell, p), fresh: fresh, caps: caps}
	for i := range g.shards {
		g.shards[i].Init(fresh())
	}
	return g
}

// container is the core both container kinds embed: the generation
// swap, the frozen components, the query cache, the observers, and
// every method that does not depend on how a write reaches a shard —
// queries and aggregates here, elastic operations in elastic.go, the
// codec in codec.go. All methods are safe for concurrent use.
type container struct {
	// topo is the topology lock: queries that need a stable shard set
	// (fold rebuilds, aggregates, the codec) hold it shared; Reshard,
	// Retarget and UnmarshalBinary hold it exclusively. Writers never
	// touch it — they re-route on the retired flag instead.
	topo sync.RWMutex
	gen  atomic.Pointer[generation]
	ret  retiredSet
	q    queryCache

	// freezes is fixed per kind at construction (cashFreezes,
	// turnFreezes): whether retired data may be frozen as a query-time
	// rank component. It decides adoption versus refusal on a
	// non-mergeable Reshard, freezing versus an error on a failed drain,
	// and whether a decoded frame may carry components.
	freezes bool

	// drainObs, when set, brackets each retired shard's drain during an
	// elastic operation (see SetDrainObserver).
	drainObs atomic.Pointer[ShardObserver]

	// ckptObs, when set, brackets each live shard's marshal during a
	// checkpoint save (see SetCheckpointObserver).
	ckptObs atomic.Pointer[ShardObserver]
}

// The per-kind values of container.freezes.
const (
	cashFreezes = true  // insert-only data may be frozen as a rank component
	turnFreezes = false // a frozen component could never cancel a deletion
)

// setup validates p and publishes generation 0 built by fresh.
func (c *container) setup(p int, fresh func() core.Summary, freezes bool) error {
	if err := checkShards(p); err != nil {
		return err
	}
	caps, err := probeCaps(fresh)
	if err != nil {
		return err
	}
	c.freezes = freezes
	c.gen.Store(newGeneration(0, p, fresh, caps))
	return nil
}

// widen lifts a typed factory to the container's core.Summary factory.
// A nil factory stays nil, so probeCaps rejects it instead of a wrapper
// closure hiding it.
func widen[T core.Summary](fresh func() T) func() core.Summary {
	if fresh == nil {
		return nil
	}
	return func() core.Summary { return fresh() }
}

// route returns the shard owning slot in the live generation. A write
// that finds it retired yields and routes again, reaching the successor
// generation once it is published.
func (c *container) route(slot uint64) *cell.Cell {
	g := c.gen.Load()
	return &g.shards[slot%uint64(len(g.shards))]
}

// Shards returns the current shard count P.
func (c *container) Shards() int { return len(c.gen.Load().shards) }

// Generation returns the topology generation: 0 at construction,
// bumped by every Reshard/Retarget/decode.
func (c *container) Generation() uint64 { return c.gen.Load().id }

// Mergeable reports whether the factory's instances merge as summaries
// (the family merges and the instances are merge-compatible), probed
// once per factory — a factory drawing random seeds is detected here
// instead of failing inside every drain. Queries of the run-listing
// families fold the shards whether or not they merge.
func (c *container) Mergeable() bool { return c.gen.Load().caps.mergeable }

// Count implements core.Summary: live shards plus frozen components.
func (c *container) Count() int64 {
	c.topo.RLock()
	defer c.topo.RUnlock()
	return c.countLocked()
}

// countLocked sums the shard and component counts; the caller holds the
// topology read lock.
func (c *container) countLocked() int64 {
	g := c.gen.Load()
	var n int64
	for i := range g.shards {
		g.shards[i].Read(func(s core.Summary) { n += s.Count() })
	}
	return n + c.ret.count()
}

// Rank implements core.Summary. Folded families answer from the
// (cached) fold — for the linear sketches, exactly the unsharded
// estimate. Otherwise ranks are additive across a partition:
// the estimate is the sum of per-shard estimates and its error the sum
// of per-shard estimate errors — for the GK family, whose midpoint
// estimator is uncertain by up to the ⌊2εᵢnᵢ⌋ capacity of the gap a
// probe falls into plus its −1 bias, Σᵢ(2εᵢnᵢ+1) ≤ 2εn + parts, where
// parts counts live shards plus frozen components (Components).
func (c *container) Rank(x uint64) int64 {
	if e := c.q.entry(c); e != nil {
		defer e.release()
		return e.rank(x)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	return c.summedRankLocked(x)
}

// RankBatch implements core.QuantileBatcher.
func (c *container) RankBatch(xs []uint64) []int64 {
	if e := c.q.entry(c); e != nil {
		defer e.release()
		return e.rankBatch(xs)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	return c.summedRankBatchLocked(xs)
}

// summedRankLocked is the additive estimate over the live shards and
// frozen components; the caller holds the topology read lock.
func (c *container) summedRankLocked(x uint64) int64 {
	g := c.gen.Load()
	var r int64
	for i := range g.shards {
		g.shards[i].Read(func(s core.Summary) { r += s.Rank(x) })
	}
	return r + c.ret.rank(x)
}

// summedRankBatchLocked is the batch form of summedRankLocked: one lock
// acquisition and one native RankBatch sweep per shard for the whole
// probe set.
func (c *container) summedRankBatchLocked(xs []uint64) []int64 {
	g := c.gen.Load()
	out := make([]int64, len(xs))
	for i := range g.shards {
		var rs []int64
		g.shards[i].Read(func(s core.Summary) { rs = core.RankBatch(s, xs) })
		for j, r := range rs {
			out[j] += r
		}
	}
	c.ret.addRanks(out, xs)
	return out
}

// Quantile implements core.Summary within the composed ε bound.
func (c *container) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if e := c.q.entry(c); e != nil {
		defer e.release()
		return e.quantile(phi)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	var q uint64
	if c.soleLocked(func(s core.Summary) { q = s.Quantile(phi) }) {
		return q
	}
	return rankQuantile(c.countLocked(), c.summedRankLocked, phi)
}

// QuantileBatch implements core.QuantileBatcher: one cached fold (or
// one lockstep rank-descent over all fractions) answers the whole
// batch.
func (c *container) QuantileBatch(phis []float64) []uint64 {
	for _, phi := range phis {
		core.CheckPhi(phi)
	}
	if e := c.q.entry(c); e != nil {
		defer e.release()
		return e.quantileBatch(phis)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	var qs []uint64
	if c.soleLocked(func(s core.Summary) { qs = core.QuantileBatch(s, phis) }) {
		return qs
	}
	return rankQuantileBatch(c.countLocked(), c.summedRankBatchLocked, phis)
}

// soleLocked runs fn under the shard's lock when one live shard holds
// all the data (no frozen components), and reports whether it did: such
// a shard answers quantiles itself, with no rank descent. The caller
// holds the topology read lock.
func (c *container) soleLocked(fn func(s core.Summary)) bool {
	g := c.gen.Load()
	if len(g.shards) != 1 || len(c.ret.comps) != 0 {
		return false
	}
	g.shards[0].Read(fn)
	return true
}

// SpaceBytes implements core.Summary: the sum over shards and frozen
// components.
func (c *container) SpaceBytes() int64 {
	c.topo.RLock()
	defer c.topo.RUnlock()
	g := c.gen.Load()
	var b int64
	for i := range g.shards {
		g.shards[i].Read(func(s core.Summary) { b += s.SpaceBytes() })
	}
	return b + c.ret.spaceBytes()
}

// Invariants implements the sanitizer contract by deep-checking every
// shard and frozen component that supports it.
func (c *container) Invariants() error {
	c.topo.RLock()
	defer c.topo.RUnlock()
	return c.invariantsLocked()
}

// invariantsLocked is Invariants under the caller's topology read lock.
func (c *container) invariantsLocked() error {
	g := c.gen.Load()
	for i := range g.shards {
		var err error
		g.shards[i].Read(func(s core.Summary) { err = checkShardInvariants(i, s) })
		if err != nil {
			return err
		}
	}
	return c.ret.invariants()
}

func checkShardInvariants(i int, s any) error {
	ic, ok := s.(invariantChecker)
	if !ok {
		return nil
	}
	if err := ic.Invariants(); err != nil {
		return fmt.Errorf("sharded: shard %d: %w", i, err)
	}
	return nil
}

// ---------------------------------------------------------------- cash

// CashRegister partitions an insert-only stream across P per-shard
// summaries produced by a factory, routing round-robin. All methods are
// safe for concurrent use, including the elastic operations in
// elastic.go.
type CashRegister struct {
	container

	// rr is the round-robin routing cursor of the handle-less write
	// path (Update/UpdateBatch with no Writer). It is the one piece of
	// shared mutable write-path state left, so it sits alone between two
	// blank cache lines: every handle-less write bumps it, and without
	// the isolation those bumps would keep invalidating the line holding
	// gen — which every writer loads per call and every flush re-loads.
	// Writer handles never touch it (each flushes to its own affinity
	// slot), which is what makes them scale.
	_  [cell.CacheLine]byte
	rr atomic.Uint64
	_  [cell.CacheLine - 8]byte

	// wslot hands out writer-handle affinity slots; bumped once per
	// AcquireWriter, never on the per-element path.
	wslot atomic.Uint64
}

// NewCashRegister builds a P-way sharded summary; fresh must return a
// new empty summary per call, all identically configured. An invalid
// shard count surfaces as an error, not a panic.
func NewCashRegister(p int, fresh func() core.CashRegister) (*CashRegister, error) {
	c := &CashRegister{}
	if err := c.setup(p, widen(fresh), cashFreezes); err != nil {
		return nil, err
	}
	return c, nil
}

// Retarget migrates the container to a new factory — typically the same
// family at a different ε — without stopping ingestion. New writes land
// in fresh summaries at the new budget immediately; each retired
// shard's data is absorbed into its successor when that preserves the
// budget semantics (see absorb) and frozen as a rank component
// otherwise. The shard count is preserved.
func (c *CashRegister) Retarget(fresh func() core.CashRegister) error {
	return c.retarget(widen(fresh))
}

// Update implements core.CashRegister: the element lands on the next
// shard in round-robin order. A shard caught mid-retire re-routes
// against the successor generation, so the retry loop runs at most for
// the duration of one topology swap.
func (c *CashRegister) Update(x uint64) {
	slot := c.rr.Add(1) - 1
	for !c.route(slot).Write(func(s core.Summary) { s.(core.CashRegister).Update(x) }) {
		runtime.Gosched()
	}
}

// UpdateBatch implements core.BatchCashRegister: the whole batch lands
// on one shard (round-robin across calls) under a single lock
// acquisition, through the shard's native batch path when it has one.
func (c *CashRegister) UpdateBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	c.deliver(c.rr.Add(1)-1, xs)
}

// UpdateBatchAffinity routes the whole batch to the shard owning key —
// for callers that partition work upstream (per user, per series) and
// want same-key batches to share a shard.
func (c *CashRegister) UpdateBatchAffinity(key uint64, xs []uint64) {
	if len(xs) == 0 {
		return
	}
	c.deliver(mix(key), xs)
}

// deliver lands one batch on the shard owning slot in the live
// generation, under a single lock acquisition and through the shard's
// native batch path. A shard caught mid-retire re-routes against the
// successor generation — the slice is applied exactly once, on a live
// shard, so count conservation across a reshard is structural. The
// batch is consumed before deliver returns (summaries copy what they
// keep), so callers may reuse the backing array — writer handles do.
func (c *CashRegister) deliver(slot uint64, xs []uint64) {
	for !c.route(slot).Write(func(s core.Summary) { core.UpdateBatch(s.(core.CashRegister), xs) }) {
		runtime.Gosched()
	}
}
