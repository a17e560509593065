package streamquantiles

import (
	"fmt"

	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded"
)

// The summaries in this library are single-writer structures, as in the
// paper's streaming model. SafeCashRegister and SafeTurnstile wrap them
// for concurrent use as one-shard containers (sharded.Sole): the
// caller's summary is the container's only shard, every write takes the
// shard's lock and bumps its write epoch, and queries share the sharded
// containers' one epoch-keyed cache. When the summary has an exact
// query flattening (core.Snapshotter: the GK tuple families, QDigest,
// and the sampling families), queries between writes answer lock-free
// from its cached snapshot — repeated queries on a quiet summary are
// wait-free binary searches, and answers are byte-identical to querying
// the summary itself. Families without one (the dyadic sketches,
// GKBiased) are queried under the shard's lock, which also covers the
// summaries whose queries flush buffered work. Nothing is copied or
// merged: the one-shard container answers from the caller's instance.

// safeCore is what both Safe wrappers share: the one-shard container
// holding the wrapped summary, and every query, codec and checkpoint
// path. The wrappers embed it and add their write methods and their
// typed Retarget.
type safeCore struct{ one sharded.Sole }

// SafeCashRegister is a goroutine-safe wrapper around a CashRegister.
type SafeCashRegister struct {
	safeCore
	w *sharded.CashRegister
}

// SafeTurnstile is a goroutine-safe wrapper around a Turnstile summary.
type SafeTurnstile struct {
	safeCore
	w *sharded.Turnstile
}

// NewSafeCashRegister wraps s. The wrapped summary must not be used
// directly afterwards.
func NewSafeCashRegister(s CashRegister) *SafeCashRegister {
	w, one := sharded.NewSoleCashRegister(s)
	return &SafeCashRegister{safeCore{one}, w}
}

// NewSafeTurnstile wraps s. The wrapped summary must not be used
// directly afterwards.
func NewSafeTurnstile(s Turnstile) *SafeTurnstile {
	w, one := sharded.NewSoleTurnstile(s)
	return &SafeTurnstile{safeCore{one}, w}
}

// Update observes one element.
func (c *SafeCashRegister) Update(x uint64) { c.w.Update(x) }

// UpdateBatch observes a batch of elements under one lock acquisition,
// through the summary's native batch path when it has one.
func (c *SafeCashRegister) UpdateBatch(xs []uint64) { c.w.UpdateBatch(xs) }

// Insert adds one occurrence of x.
func (c *SafeTurnstile) Insert(x uint64) { c.w.Insert(x) }

// Delete removes one occurrence of x.
func (c *SafeTurnstile) Delete(x uint64) { c.w.Delete(x) }

// InsertBatch adds one occurrence of every element of xs under one lock
// acquisition, through the summary's native batch path when it has one.
func (c *SafeTurnstile) InsertBatch(xs []uint64) { c.w.InsertBatch(xs) }

// DeleteBatch removes one occurrence of every element of xs under one
// lock acquisition.
func (c *SafeTurnstile) DeleteBatch(xs []uint64) { c.w.DeleteBatch(xs) }

// Retarget migrates the wrapper to a new summary — typically the same
// family at a different ε — without interrupting readers: the old
// summary's data is absorbed into fresh (a plain merge when the
// configurations match, a budget-widening RetargetMerge otherwise) and
// fresh replaces it atomically under the shard's lock. On error the
// wrapped summary is unchanged. Note the merged budget is
// max(ε_old, ε_new): retargeting a lone summary to a finer ε cannot
// erase the error already committed — use a sharded container when old
// data must keep its own budget separately.
func (c *SafeCashRegister) Retarget(fresh CashRegister) error {
	return c.one.Replace(fresh, absorbSummary)
}

// Retarget migrates the wrapper to a new summary; see
// SafeCashRegister.Retarget.
func (c *SafeTurnstile) Retarget(fresh Turnstile) error { return c.one.Replace(fresh, absorbSummary) }

// absorbSummary folds old into tgt: a plain MERGE when the
// configurations match, a RetargetMerge (widening tgt's budget to
// max(ε_tgt, ε_old)) otherwise. An old summary with a zero count needs
// no absorb path. For a cash register that is plain emptiness. For a
// turnstile it is sound too: under the strict turnstile model no
// element's net frequency may go negative, so a zero net count means
// every element's net frequency is zero, and a linear sketch of that
// frequency vector is exactly empty.
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
func (c *safeCore) Quantile(phi float64) uint64 { return c.one.Quantile(phi) }

// Quantiles extracts one quantile per fraction under at most a single
// lock acquisition.
func (c *safeCore) Quantiles(phis []float64) []uint64 { return c.one.QuantileBatch(phis) }

// QuantileBatch implements core.QuantileBatcher (as Quantiles).
func (c *safeCore) QuantileBatch(phis []float64) []uint64 { return c.one.QuantileBatch(phis) }

// Rank returns the estimated rank of x.
func (c *safeCore) Rank(x uint64) int64 { return c.one.Rank(x) }

// RankBatch implements core.QuantileBatcher.
func (c *safeCore) RankBatch(xs []uint64) []int64 { return c.one.RankBatch(xs) }

// Count reports the current number of elements.
func (c *safeCore) Count() int64 { return c.one.Count() }

// SpaceBytes reports the summary size (wrapper overhead excluded).
func (c *safeCore) SpaceBytes() int64 { return c.one.SpaceBytes() }

// Snapshot returns the wrapped summary's binary encoding. Marshalling
// is read-only for every summary in this library (buffered elements are
// encoded, not flushed), so writers are excluded only for the duration
// of the encode, never for disk I/O, and queries answering from a
// cached snapshot are not excluded at all.
func (c *safeCore) Snapshot() ([]byte, error) { return c.one.Marshal() }

// Checkpoint snapshots the summary and durably publishes the snapshot
// as the next generation in ck's directory. Only the in-memory encode
// holds the summary's lock (via Snapshot); the lock is released before
// CRC framing, fsync and rename — and any transient-error retries — so
// updates flow while the bytes hit disk. When the wrapped summary is a
// sharded container the encode itself is parallel and per-shard: each
// worker stops only its own shard for that shard's marshal, never the
// whole container (see ShardedCashRegister's MarshalBinary). Concurrent
// Checkpoint calls on one Checkpointer are not allowed — run one
// checkpointing goroutine per directory.
func (c *safeCore) Checkpoint(ck *Checkpointer, label string) (uint64, error) {
	blob, err := c.Snapshot()
	if err != nil {
		return 0, err
	}
	return ck.Save(label, blob)
}

// Restore replaces the wrapped summary's state from a snapshot or
// recovered checkpoint payload, decoding in place under the shard's
// lock.
func (c *safeCore) Restore(blob []byte) error { return c.one.Unmarshal(blob) }

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
