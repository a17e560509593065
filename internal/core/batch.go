package core

// Batched ingestion. The paper's own headline engineering result is that
// GKArray beats GKAdaptive purely by amortizing per-item tree searches
// into buffered sort+merge passes; these interfaces extend that idea
// library-wide. A summary that implements the batch interface processes
// a whole slice per call — hoisting bounds checks, hash coefficient
// loads, level-loop bookkeeping and lock acquisitions out of the
// per-element loop — while remaining semantically equivalent to the
// element-at-a-time methods (byte-identical state for the linear and
// buffer-copy paths, identical ε guarantees where compaction order
// legitimately differs; see DESIGN.md "Batched ingestion").

// BatchCashRegister is a CashRegister with a native batched update path.
type BatchCashRegister interface {
	CashRegister

	// UpdateBatch observes the elements of xs in order. It is
	// semantically equivalent to calling Update on each element.
	// The implementation must not retain xs.
	UpdateBatch(xs []uint64)
}

// BatchTurnstile is a Turnstile with native batched update paths.
type BatchTurnstile interface {
	Turnstile

	// InsertBatch adds one occurrence of every element of xs.
	InsertBatch(xs []uint64)
	// DeleteBatch removes one occurrence of every element of xs.
	DeleteBatch(xs []uint64)
	// AddBatch applies the signed weight delta to every element of xs:
	// the weighted batch primitive (delta +1 is InsertBatch, −1 is
	// DeleteBatch). The implementation must not retain xs.
	AddBatch(xs []uint64, delta int64)
}

// Mergeable is implemented by summaries that can fold another summary
// of the same concrete type and configuration into themselves — the
// mergeable-summary sense of Agarwal et al. MergeSummary must leave
// other semantically unchanged (flushing other's internal buffers, a
// transparent operation its own queries also perform, is allowed).
// The sharded containers use it to drain shards into their successors
// on Reshard and Retarget; their queries fold listed runs or sum linear
// counters instead.
type Mergeable interface {
	// MergeSummary folds other into the receiver and returns an error
	// when other has a different concrete type or configuration.
	MergeSummary(other Summary) error
}

// Linear is implemented by the linear sketches (the dyadic family):
// summaries whose whole state is a set of counters that merge by
// addition, so equally configured instances sum to the summary of the
// union of their streams in any order. Reset zeroes the counters and
// keeps the configuration and hash functions, so one instance can
// absorb a new sum of merges without being rebuilt.
type Linear interface {
	Mergeable
	Reset()
}

// Retargetable is implemented by mergeable summaries that can absorb a
// summary built with a DIFFERENT error budget — the rebuild-through-
// merge primitive behind online re-ε migration. RetargetMerge widens
// the receiver's eps to the maximum of the two (error never silently
// shrinks: a coarser input poisons the fold to its own budget, exactly
// the max(eps1, eps2) rule MERGE already obeys for equal budgets) and
// then folds other in. Like MergeSummary it must leave other
// semantically unchanged.
type Retargetable interface {
	// RetargetMerge folds other into the receiver, adopting
	// max(receiver eps, other eps) as the merged error budget. It
	// returns an error when other has an incompatible concrete type.
	RetargetMerge(other Summary) error
}

// UpdateBatch feeds xs to s through its native batch path when it has
// one, falling back to the per-element loop.
func UpdateBatch(s CashRegister, xs []uint64) {
	if b, ok := s.(BatchCashRegister); ok {
		b.UpdateBatch(xs)
		return
	}
	for _, x := range xs {
		s.Update(x)
	}
}

// InsertBatch inserts xs into s through its native batch path when it
// has one, falling back to the per-element loop.
func InsertBatch(s Turnstile, xs []uint64) {
	if b, ok := s.(BatchTurnstile); ok {
		b.InsertBatch(xs)
		return
	}
	for _, x := range xs {
		s.Insert(x)
	}
}

// DeleteBatch deletes xs from s through its native batch path when it
// has one, falling back to the per-element loop.
func DeleteBatch(s Turnstile, xs []uint64) {
	if b, ok := s.(BatchTurnstile); ok {
		b.DeleteBatch(xs)
		return
	}
	for _, x := range xs {
		s.Delete(x)
	}
}
