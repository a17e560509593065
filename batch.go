package streamquantiles

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded"
)

// Batched ingestion. Every summary in this library implements a native
// batch path: the deterministic GK variants stage a batch into their
// buffer and sort-and-merge once, the sampling summaries (MRL99,
// Random) skip whole sampling blocks, KLL and the q-digest fill their
// level-0/element buffers by block copy, and the dyadic sketches flip
// the per-element level walk to level-major chunks with hoisted hash
// coefficients. The batch paths produce either byte-identical state or
// (for GKAdaptive and GKTheory, which compress across the batch)
// answers within the same ε guarantee.

// BatchCashRegister is a CashRegister with a native batch update path.
type BatchCashRegister = core.BatchCashRegister

// BatchTurnstile is a Turnstile with native batch insert/delete paths.
type BatchTurnstile = core.BatchTurnstile

// UpdateBatch feeds a batch through s's native batch path, falling back
// to a per-element loop for summaries without one.
func UpdateBatch(s CashRegister, xs []uint64) { core.UpdateBatch(s, xs) }

// InsertBatch adds one occurrence of every element of xs.
func InsertBatch(s Turnstile, xs []uint64) { core.InsertBatch(s, xs) }

// DeleteBatch removes one occurrence of every element of xs.
func DeleteBatch(s Turnstile, xs []uint64) { core.DeleteBatch(s, xs) }

// ShardedCashRegister partitions an insert-only stream across P
// independently locked per-shard summaries, so P writers ingest with no
// shared lock; queries combine the shards within the composed ε bound.
type ShardedCashRegister = sharded.CashRegister

// ShardedTurnstile is the turnstile counterpart, routing elements by
// value affinity so deletions reach the shard that saw the insertions.
type ShardedTurnstile = sharded.Turnstile

// NewShardedCashRegister builds a P-way sharded cash-register summary;
// fresh must return a new, identically configured empty summary per
// call (same ε — and same seed for the mergeable randomized families).
// It errors when p < 1 — invalid topologies are a caller bug surfaced
// at construction, not a panic at first update.
func NewShardedCashRegister(p int, fresh func() CashRegister) (*ShardedCashRegister, error) {
	return sharded.NewCashRegister(p, fresh)
}

// NewShardedTurnstile builds a P-way sharded turnstile summary; fresh
// must return a new, identically configured empty summary per call
// (identical seeds, so shards merge exactly at query time). It errors
// when p < 1.
func NewShardedTurnstile(p int, fresh func() Turnstile) (*ShardedTurnstile, error) {
	return sharded.NewTurnstile(p, fresh)
}

// CashWriter is a per-goroutine ingestion handle for a
// ShardedCashRegister: acquire one per writer goroutine
// (ShardedCashRegister.AcquireWriter), feed it with Update/UpdateBatch,
// and Close it when done. Buffered elements become visible to queries
// on Flush/Close; flushes that race a Reshard/Retarget re-route to the
// live topology, so no element is ever lost.
type CashWriter = sharded.CashWriter

// TurnWriter is the per-goroutine ingestion handle for a
// ShardedTurnstile (ShardedTurnstile.AcquireWriter): buffered
// Insert/Delete with insertions flushed before deletions, preserving
// the strict-turnstile model at every flush boundary.
type TurnWriter = sharded.TurnWriter

// DrainObserver brackets each per-shard drain performed by an elastic
// operation: called with the shard's index when the drain starts, its
// returned func when it completes. Install one with SetDrainObserver on
// a sharded container to record ingestion-stall durations
// (cmd/quantstress does exactly this in its soak report). It is the
// same type as CheckpointObserver.
type DrainObserver = sharded.ShardObserver

// CheckpointObserver brackets each live shard's marshal during a
// checkpoint save — the only window a writer routed to that shard can
// stall for while the rest of the topology keeps ingesting ("stop the
// shard, not the world"). Install one with SetCheckpointObserver on a
// sharded container to record those stall durations; cmd/quantstress
// feeds them into a latency sketch and gates them with
// -slo-checkpoint-max.
type CheckpointObserver = sharded.ShardObserver
