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
// Σ εᵢnᵢ ≤ εn: summaries implementing core.Mergeable (the dyadic
// linear sketches, KLL, q-digest, MRL99, Random) fold into one
// fresh summary which answers directly; the rest (the GK family)
// combine by additive rank estimation — the summed per-shard rank
// estimate tracks the true combined rank everywhere within the summed
// estimate errors (at most 2εn + P for GK's midpoint estimator, far
// less in practice), and a 64-bit bitwise descent over the value domain
// inverts it.
//
// The fold itself is cached and parallel: mergeability is probed once
// per factory, every shard carries a write epoch, and the combined
// artifact (merged summary or exact per-shard snapshots) is reused
// lock-free across queries until some shard is written again — see
// query.go.
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
// quantlint SQ005 contract); shards that provide it are deep-checked by
// Invariants.
type invariantChecker interface{ Invariants() error }

// cacheLine is the placement granularity for hot shared state: 128
// bytes — two 64-byte lines — so the spatial prefetcher's paired line
// loads cannot re-introduce false sharing between neighbours either.
// The shard struct a generation stores as []shard pads to a multiple of
// it (the SQ014 lint holds the discipline, a Sizeof test pins the
// arithmetic): without the padding, shard i's lock word and
// shard i+1's summary header share a line, and P writers on P cores
// ping that line between caches on every update even though they never
// touch each other's shard.
const cacheLine = 128

// shard pads each summary's lock onto its own state; shards are only
// ever touched under their own mutex. epoch counts writes: bumped under
// mu before every mutation, loadable without it (see query.go). Both
// container kinds store their summary as a core.Summary; the write
// paths assert it to core.CashRegister or core.Turnstile once per call.
type shard struct {
	mu      sync.Mutex
	s       core.Summary // guarded by mu
	retired bool         // guarded by mu
	epoch   atomic.Uint64
	// The live fields above occupy 40 bytes on 64-bit; the blank tail
	// rounds the struct up to cacheLine so adjacent shards in the
	// generation slice never share a line (TestShardStructsPadded).
	_ [cacheLine - 40]byte
}

// generation is one immutable shard topology: the shard array, the
// factory that populated it, and the factory's probed fold
// capabilities. A generation's fields never change after publication;
// elastic operations build a successor and swap the container's
// pointer.
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
	shards []shard
	fresh  func() core.Summary
	caps   foldCaps
}

func newGeneration(id uint64, p int, fresh func() core.Summary, caps foldCaps) *generation {
	g := &generation{id: id, shards: make([]shard, p), fresh: fresh, caps: caps}
	for i := range g.shards {
		g.shards[i].s = fresh()
	}
	return g
}

// withShard runs fn under shard i's lock and returns the write epoch
// observed while holding it.
func (g *generation) withShard(i int, fn func(s core.Summary)) uint64 {
	sh := &g.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.s)
	return sh.epoch.Load()
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
	c.freezes = freezes
	c.gen.Store(newGeneration(0, p, fresh, probeCaps(fresh)))
	return nil
}

// Shards returns the current shard count P.
func (c *container) Shards() int { return len(c.gen.Load().shards) }

// Generation returns the topology generation: 0 at construction,
// bumped by every Reshard/Retarget/decode.
func (c *container) Generation() uint64 { return c.gen.Load().id }

// Mergeable reports whether queries fold the shards into one merged
// summary (the family merges and the factory's instances are
// merge-compatible), probed once per factory — a factory drawing random
// seeds is detected here instead of failing inside every query.
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
		sh := &g.shards[i]
		sh.mu.Lock()
		n += sh.s.Count()
		sh.mu.Unlock()
	}
	return n + c.ret.count()
}

// Rank implements core.Summary. Mergeable families answer from the
// (cached) merged summary — for the linear sketches, exactly the
// unsharded estimate. Otherwise ranks are additive across a partition:
// the estimate is the sum of per-shard estimates and its error the sum
// of per-shard estimate errors — for the GK family, whose midpoint
// estimator is uncertain by up to the ⌊2εᵢnᵢ⌋ capacity of the gap a
// probe falls into plus its −1 bias, Σᵢ(2εᵢnᵢ+1) ≤ 2εn + parts, where
// parts counts live shards plus frozen components (Components).
func (c *container) Rank(x uint64) int64 {
	if e := c.q.entry(c); e != nil {
		return e.rank(x)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	return c.summedRankLocked(x)
}

// RankBatch implements core.QuantileBatcher.
func (c *container) RankBatch(xs []uint64) []int64 {
	if e := c.q.entry(c); e != nil {
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
		sh := &g.shards[i]
		sh.mu.Lock()
		r += sh.s.Rank(x)
		sh.mu.Unlock()
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
		sh := &g.shards[i]
		sh.mu.Lock()
		rs := core.RankBatch(sh.s, xs)
		sh.mu.Unlock()
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
		return e.quantile(phi)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
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
		return e.quantileBatch(phis)
	}
	c.topo.RLock()
	defer c.topo.RUnlock()
	return rankQuantileBatch(c.countLocked(), c.summedRankBatchLocked, phis)
}

// SpaceBytes implements core.Summary: the sum over shards and frozen
// components.
func (c *container) SpaceBytes() int64 {
	c.topo.RLock()
	defer c.topo.RUnlock()
	g := c.gen.Load()
	var b int64
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		b += sh.s.SpaceBytes()
		sh.mu.Unlock()
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
		sh := &g.shards[i]
		sh.mu.Lock()
		err := checkShardInvariants(i, sh.s)
		sh.mu.Unlock()
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
	_  [cacheLine]byte
	rr atomic.Uint64
	_  [cacheLine - 8]byte

	// wslot hands out writer-handle affinity slots; bumped once per
	// AcquireWriter, never on the per-element path.
	wslot atomic.Uint64
}

// NewCashRegister builds a P-way sharded summary; fresh must return a
// new empty summary per call, all identically configured. An invalid
// shard count surfaces as an error, not a panic.
func NewCashRegister(p int, fresh func() core.CashRegister) (*CashRegister, error) {
	c := &CashRegister{}
	if err := c.setup(p, func() core.Summary { return fresh() }, cashFreezes); err != nil {
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
	return c.retarget(func() core.Summary { return fresh() })
}

// Update implements core.CashRegister: the element lands on the next
// shard in round-robin order. A shard caught mid-retire re-routes
// against the successor generation, so the retry loop runs at most for
// the duration of one topology swap.
func (c *CashRegister) Update(x uint64) {
	i := c.rr.Add(1) - 1
	for {
		g := c.gen.Load()
		sh := &g.shards[i%uint64(len(g.shards))]
		sh.mu.Lock()
		if sh.retired {
			sh.mu.Unlock()
			runtime.Gosched()
			continue
		}
		sh.epoch.Add(1)
		sh.s.(core.CashRegister).Update(x)
		sh.mu.Unlock()
		return
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
	for {
		g := c.gen.Load()
		sh := &g.shards[slot%uint64(len(g.shards))]
		sh.mu.Lock()
		if sh.retired {
			sh.mu.Unlock()
			runtime.Gosched()
			continue
		}
		sh.epoch.Add(1)
		core.UpdateBatch(sh.s.(core.CashRegister), xs)
		sh.mu.Unlock()
		return
	}
}
