package streamquantiles

import (
	"encoding"
	"fmt"
	"sync"
	"sync/atomic"

	"streamquantiles/internal/core"
	"streamquantiles/internal/snapshot"
)

// The summaries in this library are single-writer structures, as in the
// paper's streaming model. SafeCashRegister and SafeTurnstile wrap them
// for concurrent use: updates take an exclusive lock, queries a shared
// one — except for summaries that amortize buffered work into their
// query methods (anything implementing Flusher: GKArray, GKBiased and
// QDigest flush pending elements when queried), where queries also
// mutate and therefore take the exclusive lock. The wrapper detects
// this at construction — and re-detects it after a Retarget swap — so
// callers get the strongest locking that is sound for their summary
// without choosing it themselves.
//
// When the wrapped summary has an exact query flattening
// (core.Snapshotter: the GK tuple families, QDigest, and the sampling
// families), the wrappers additionally keep an epoch-cached
// QuerySnapshot: every write bumps an epoch under the exclusive lock,
// and queries between writes answer from the immutable snapshot without
// taking any lock at all — repeated queries on a quiet summary are
// wait-free binary searches. Snapshots are exact, so answers are
// byte-identical to querying the live summary; families without an
// exact flattening (the dyadic sketches, GKBiased) keep the plain
// locked path.
//
// The capability fields (exclusiveReads, snap) are atomics rather than
// plain booleans/pointers because Retarget can swap the wrapped summary
// — and with it both capabilities — while lock-free readers are
// consulting them. A reader that loads a stale capability is still
// safe: rlock re-checks under the shared lock and upgrades, and
// snapshot re-loads the cache under the query lock before rebuilding.

// Flusher is implemented by summaries whose query methods first merge
// buffered updates into the main structure. For these types a read
// lock is NOT sufficient for queries.
type Flusher interface {
	// Flush merges any buffered elements into the main structure.
	Flush()
}

// safeCore is the state and the methods both Safe wrappers share: the
// lock, the wrapped summary, and every query, codec, checkpoint and
// retarget path. The wrappers embed it and add only their write
// methods, which assert the summary to their kind once per call.
type safeCore struct {
	mu sync.RWMutex
	s  core.Summary // guarded by mu
	// exclusiveReads is set when s implements Flusher: its queries
	// mutate internal state, so they need the write lock. The dyadic
	// sketches are pure readers at query time, so in practice turnstile
	// queries run under the shared lock.
	exclusiveReads atomic.Bool
	// snap caches an exact query snapshot between writes; non-nil only
	// when s implements core.Snapshotter (the dyadic sketches do not —
	// their queries always take the lock).
	snap atomic.Pointer[snapshot.Cache]
}

// SafeCashRegister is a goroutine-safe wrapper around a CashRegister.
type SafeCashRegister struct{ safeCore }

// SafeTurnstile is a goroutine-safe wrapper around a Turnstile summary.
type SafeTurnstile struct{ safeCore }

// NewSafeCashRegister wraps s. The wrapped summary must not be used
// directly afterwards.
func NewSafeCashRegister(s CashRegister) *SafeCashRegister {
	c := &SafeCashRegister{safeCore{s: s}}
	c.detect(s)
	return c
}

// NewSafeTurnstile wraps s. The wrapped summary must not be used
// directly afterwards.
func NewSafeTurnstile(s Turnstile) *SafeTurnstile {
	c := &SafeTurnstile{safeCore{s: s}}
	c.detect(s)
	return c
}

// detect sets the capabilities of s, the summary being wrapped:
// exclusive reads and the snapshot cache.
func (c *safeCore) detect(s core.Summary) {
	_, flushes := s.(Flusher)
	c.exclusiveReads.Store(flushes)
	c.snap.Store(snapshot.For(s))
}

// rlock takes the strongest lock queries on the wrapped summary need
// and returns the matching unlock. Over-locking is always sound, so the
// only care needed is the upgrade: a reader that saw shared-mode just
// before a Retarget swapped in a Flusher re-checks under the shared
// lock and upgrades.
//
// locks mu
func (c *safeCore) rlock() func() {
	if !c.exclusiveReads.Load() {
		c.mu.RLock()
		if !c.exclusiveReads.Load() {
			return c.mu.RUnlock
		}
		c.mu.RUnlock()
	}
	c.mu.Lock()
	return c.mu.Unlock
}

// snapshot returns an epoch-valid exact snapshot, building one under
// the query lock when the cached one has been retired by a write; nil
// when the summary has no exact flattening. Note a Flusher's
// AppendQuerySnapshot may flush buffered elements — that runs under the
// exclusive lock (rlock) and does not change query answers, so the
// epoch is not bumped.
func (c *safeCore) snapshot() *core.QuerySnapshot {
	sc := c.snap.Load()
	if sc == nil {
		return nil
	}
	if qs := sc.Current(); qs != nil {
		return qs
	}
	defer c.rlock()()
	sc = c.snap.Load() // Retarget may have swapped the cache meanwhile
	if sc == nil {
		return nil
	}
	if qs := sc.Current(); qs != nil {
		return qs // another reader rebuilt first
	}
	ss, ok := c.s.(core.Snapshotter)
	if !ok {
		return nil
	}
	return sc.Rebuild(ss)
}

// invalidate retires the cached snapshot; the caller holds the write
// lock.
func (c *safeCore) invalidate() {
	if sc := c.snap.Load(); sc != nil {
		sc.Invalidate()
	}
}

// Update observes one element.
func (c *SafeCashRegister) Update(x uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate()
	c.s.(CashRegister).Update(x)
}

// UpdateBatch observes a batch of elements under one lock acquisition,
// through the summary's native batch path when it has one.
func (c *SafeCashRegister) UpdateBatch(xs []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate()
	core.UpdateBatch(c.s.(CashRegister), xs)
}

// Insert adds one occurrence of x.
func (c *SafeTurnstile) Insert(x uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate()
	c.s.(Turnstile).Insert(x)
}

// Delete removes one occurrence of x.
func (c *SafeTurnstile) Delete(x uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate()
	c.s.(Turnstile).Delete(x)
}

// InsertBatch adds one occurrence of every element of xs under one lock
// acquisition, through the summary's native batch path when it has one.
func (c *SafeTurnstile) InsertBatch(xs []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate()
	core.InsertBatch(c.s.(Turnstile), xs)
}

// DeleteBatch removes one occurrence of every element of xs under one
// lock acquisition.
func (c *SafeTurnstile) DeleteBatch(xs []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate()
	core.DeleteBatch(c.s.(Turnstile), xs)
}

// Retarget migrates the wrapper to a new summary — typically the same
// family at a different ε — without interrupting readers: the old
// summary's data is absorbed into fresh (a plain merge when the
// configurations match, a budget-widening RetargetMerge otherwise) and
// fresh replaces it atomically under the write lock. On error the
// wrapped summary is unchanged. Note the merged budget is
// max(ε_old, ε_new): retargeting a lone summary to a finer ε cannot
// erase the error already committed — use a sharded container when old
// data must keep its own budget separately.
func (c *SafeCashRegister) Retarget(fresh CashRegister) error { return c.retarget(fresh) }

// Retarget migrates the wrapper to a new summary; see
// SafeCashRegister.Retarget.
func (c *SafeTurnstile) Retarget(fresh Turnstile) error { return c.retarget(fresh) }

// retarget is the body of both typed Retargets. An old summary with a
// zero count needs no absorb path (see absorbSummary). For a cash
// register that is plain emptiness. For a turnstile it is sound too:
// under the strict turnstile model no element's net frequency may go
// negative, so a zero net count means every element's net frequency is
// zero, and a linear sketch of that frequency vector is exactly empty.
func (c *safeCore) retarget(fresh core.Summary) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := absorbSummary(fresh, c.s); err != nil {
		return err
	}
	c.s = fresh
	c.detect(fresh)
	return nil
}

// absorbSummary folds old into tgt: a plain MERGE when the
// configurations match, a RetargetMerge (widening tgt's budget to
// max(ε_tgt, ε_old)) otherwise. An empty old summary absorbs trivially.
func absorbSummary(tgt, old core.Summary) error {
	if m, ok := tgt.(core.Mergeable); ok && m.MergeSummary(old) == nil {
		return nil
	}
	if r, ok := tgt.(core.Retargetable); ok && r.RetargetMerge(old) == nil {
		return nil
	}
	if old.Count() == 0 {
		return nil
	}
	return fmt.Errorf("streamquantiles: %T cannot absorb the live %T data (no merge or retarget-merge path)", tgt, old)
}

// Quantile returns an estimated φ-quantile — lock-free from the cached
// snapshot when the summary supports one and has been quiet since the
// last query.
func (c *safeCore) Quantile(phi float64) uint64 {
	if qs := c.snapshot(); qs != nil {
		return qs.Quantile(phi)
	}
	defer c.rlock()()
	return c.s.Quantile(phi)
}

// Quantiles extracts one quantile per fraction under at most a single
// lock acquisition.
func (c *safeCore) Quantiles(phis []float64) []uint64 {
	if qs := c.snapshot(); qs != nil {
		return qs.QuantileBatch(phis)
	}
	defer c.rlock()()
	return Quantiles(c.s, phis)
}

// QuantileBatch implements core.QuantileBatcher (as Quantiles).
func (c *safeCore) QuantileBatch(phis []float64) []uint64 { return c.Quantiles(phis) }

// Rank returns the estimated rank of x.
func (c *safeCore) Rank(x uint64) int64 {
	if qs := c.snapshot(); qs != nil {
		return qs.Rank(x)
	}
	defer c.rlock()()
	return c.s.Rank(x)
}

// RankBatch implements core.QuantileBatcher.
func (c *safeCore) RankBatch(xs []uint64) []int64 {
	if qs := c.snapshot(); qs != nil {
		return qs.RankBatch(xs)
	}
	defer c.rlock()()
	return core.RankBatch(c.s, xs)
}

// Count reports the current number of elements.
func (c *safeCore) Count() int64 {
	defer c.rlock()()
	return c.s.Count()
}

// SpaceBytes reports the summary size (wrapper overhead excluded).
func (c *safeCore) SpaceBytes() int64 {
	defer c.rlock()()
	return c.s.SpaceBytes()
}

// Snapshot returns the wrapped summary's binary encoding. Marshalling
// is read-only for every summary in this library (buffered elements are
// encoded, not flushed), so the snapshot runs under the shared lock:
// writers are excluded only for the duration of the encode, never for
// disk I/O.
func (c *safeCore) Snapshot() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.s.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("streamquantiles: %T does not implement encoding.BinaryMarshaler", c.s)
	}
	return m.MarshalBinary()
}

// Checkpoint snapshots the summary and durably publishes the snapshot
// as the next generation in ck's directory. Only the in-memory encode
// holds the summary's lock (shared, via Snapshot); the lock is released
// before CRC framing, fsync and rename — and any transient-error
// retries — so updates flow while the bytes hit disk. When the wrapped
// summary is a sharded container the encode itself is parallel and
// per-shard: each worker stops only its own shard for that shard's
// marshal, never the whole container (see ShardedCashRegister's
// MarshalBinary). Concurrent Checkpoint calls on one Checkpointer are
// not allowed — run one checkpointing goroutine per directory.
func (c *safeCore) Checkpoint(ck *Checkpointer, label string) (uint64, error) {
	blob, err := c.Snapshot()
	if err != nil {
		return 0, err
	}
	return ck.Save(label, blob)
}

// Restore replaces the wrapped summary's state from a snapshot or
// recovered checkpoint payload, under the exclusive lock.
func (c *safeCore) Restore(blob []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.s.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("streamquantiles: %T does not implement encoding.BinaryUnmarshaler", c.s)
	}
	c.invalidate()
	return u.UnmarshalBinary(blob)
}

// MarshalBinary implements encoding.BinaryMarshaler (as Snapshot), so
// the wrapper slots directly into SaveCheckpoint.
func (c *safeCore) MarshalBinary() ([]byte, error) { return c.Snapshot() }

// UnmarshalBinary implements encoding.BinaryUnmarshaler (as Restore), so
// the wrapper slots directly into RecoverCheckpoint.
func (c *safeCore) UnmarshalBinary(data []byte) error { return c.Restore(data) }

// NewSafeShardedCashRegister is the concurrent-ingestion construction
// for write-heavy workloads: where the Safe wrappers serialize all
// writers behind one lock, a sharded summary gives each of P shards its
// own lock, so P writers proceed in parallel. The result is already
// goroutine-safe — there is no wrapper to add — and supports online
// Reshard/Retarget. For maximum write throughput give each ingesting
// goroutine its own handle via AcquireWriter: handles buffer locally
// and touch no shared state between flushes.
func NewSafeShardedCashRegister(p int, fresh func() CashRegister) (*ShardedCashRegister, error) {
	return NewShardedCashRegister(p, fresh)
}

// NewSafeShardedTurnstile is the turnstile counterpart of
// NewSafeShardedCashRegister.
func NewSafeShardedTurnstile(p int, fresh func() Turnstile) (*ShardedTurnstile, error) {
	return NewShardedTurnstile(p, fresh)
}
