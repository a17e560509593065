package core

import (
	"cmp"
	"slices"
)

// Batched queries. The read-path counterpart of batch.go: a summary that
// implements QuantileBatcher answers many quantile (or rank) queries in
// one pass over its state — the φ list is sorted once, then a single
// sweep over the summary's sorted tuples / compactor items / postorder
// nodes answers every fraction, instead of one full walk per φ. The
// results are byte-identical to the per-φ methods; only the traversal is
// shared (see DESIGN.md "Query path").

// QuantileBatcher is an optional interface a Summary may implement to
// answer many queries in one pass over its state; QuantileBatch and
// RankBatch use it when available. Implementations must return exactly
// one element per input, accept inputs in any order (including
// duplicates), and produce results identical to calling the per-item
// method on each input.
type QuantileBatcher interface {
	// QuantileBatch returns one estimated quantile per fraction.
	QuantileBatch(phis []float64) []uint64
	// RankBatch returns one estimated rank per value.
	RankBatch(xs []uint64) []int64
}

// QuantileBatch extracts one quantile per fraction in phis, using the
// summary's single-pass batch path when it provides one.
func QuantileBatch(s Summary, phis []float64) []uint64 {
	if b, ok := s.(QuantileBatcher); ok {
		return b.QuantileBatch(phis)
	}
	out := make([]uint64, len(phis))
	for i, phi := range phis {
		out[i] = s.Quantile(phi)
	}
	return out
}

// RankBatch estimates one rank per value in xs, using the summary's
// single-pass batch path when it provides one.
func RankBatch(s Summary, xs []uint64) []int64 {
	if b, ok := s.(QuantileBatcher); ok {
		return b.RankBatch(xs)
	}
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = s.Rank(x)
	}
	return out
}

// sortedXOrder returns the indices of xs in ascending value order.
func sortedXOrder(xs []uint64) []int {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	return order
}

// WeightedRanks answers a batch of rank queries over a value-sorted
// sample set in a single cumulative scan, returning for each x the total
// weight of samples strictly smaller than x (identical to calling
// WeightedRank per value).
func WeightedRanks(sorted []WeightedValue, xs []uint64) []int64 {
	order := sortedXOrder(xs)
	out := make([]int64, len(xs))
	var cum int64
	pos := 0
	for _, idx := range order {
		x := xs[idx]
		for pos < len(sorted) && sorted[pos].V < x {
			cum += sorted[pos].W
			pos++
		}
		out[idx] = cum
	}
	return out
}

// QuerySnapshot is a summary frozen into flat sorted arrays so that
// every subsequent query is a binary search: O(log s), zero allocation,
// and safe to share between goroutines (the arrays are immutable once
// built). Two step functions are materialized:
//
//   - Quantile side: the answer to Quantile(phi) is QVals[i] for the
//     smallest i with QKeys[i] > TargetRank(phi, N), or the last entry
//     when no key exceeds the target. QKeys is non-decreasing.
//   - Rank side: the answer to Rank(x) is RRanks[i] for the largest i
//     with RVals[i] < x (RStrict) or RVals[i] <= x (!RStrict), and 0
//     when no entry qualifies. RVals is non-decreasing.
//
// Families whose query rules fit this shape exactly (the GK tuple
// families via a running-max key transform, QDigest via its postorder
// scan, and the sample-based families via cumulative weights) implement
// Snapshotter; their snapshots return byte-identical answers to the
// live summary. For the sample-based families the two sides are the
// same pairs, so RVals and RRanks share QVals' and QKeys' arrays: one
// value column and one cumulative-weight column, written by the run
// merge in a single pass. Builds size every column once, at its final
// length, so a fresh snapshot's arrays are exactly full: nothing
// appended to one column can reach into a shared one, and a published
// snapshot stays immutable. See DESIGN.md "Query snapshots" for the
// per-family flattening argument.
type QuerySnapshot struct {
	N       int64 // quantile target base: count, or total sample weight
	QVals   []uint64
	QKeys   []int64
	RVals   []uint64
	RRanks  []int64
	RStrict bool // rank rule compares RVals[i] < x instead of <= x
}

// Snapshotter is implemented by summaries whose query behavior can be
// flattened exactly into a QuerySnapshot. AppendQuerySnapshot overwrites
// qs with the summary's current state, reusing slice capacity. Callers
// that cache snapshots own the invalidation protocol (see
// internal/snapshot).
type Snapshotter interface {
	AppendQuerySnapshot(qs *QuerySnapshot)
}

// BuildQuerySnapshot materializes a fresh snapshot of s.
func BuildQuerySnapshot(s Snapshotter) *QuerySnapshot {
	qs := new(QuerySnapshot)
	s.AppendQuerySnapshot(qs)
	return qs
}

// Reset truncates the snapshot for rebuilding, keeping capacity. Rank
// columns that share the quantile columns' arrays are dropped first, so
// a family that fills the two sides separately never writes one through
// the other.
func (qs *QuerySnapshot) Reset() {
	if cap(qs.RVals) > 0 && cap(qs.QVals) > 0 && &qs.RVals[:1][0] == &qs.QVals[:1][0] {
		qs.RVals, qs.RRanks = nil, nil
	}
	qs.N = 0
	qs.QVals = qs.QVals[:0]
	qs.QKeys = qs.QKeys[:0]
	qs.RVals = qs.RVals[:0]
	qs.RRanks = qs.RRanks[:0]
	qs.RStrict = false
}

// Grow resets the snapshot and makes room for nq quantile entries and nr
// rank entries. A column whose capacity falls short is allocated anew at
// exactly its size.
func (qs *QuerySnapshot) Grow(nq, nr int) {
	qs.Reset()
	qs.QVals, qs.QKeys = growExact(qs.QVals, nq), growExact(qs.QKeys, nq)
	qs.RVals, qs.RRanks = growExact(qs.RVals, nr), growExact(qs.RRanks, nr)
}

// growExact returns s emptied, with capacity for n elements.
func growExact[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Quantile answers a quantile query from the snapshot.
func (qs *QuerySnapshot) Quantile(phi float64) uint64 {
	CheckPhi(phi)
	if qs.N <= 0 || len(qs.QVals) == 0 {
		panic(ErrEmpty)
	}
	return qs.QVals[qs.quantileIndex(TargetRank(phi, qs.N))]
}

// quantileIndex finds the smallest i with QKeys[i] > target, clamped to
// the last entry. The branch-free search keeps the hot query path
// closure-, allocation- and mispredict-free.
func (qs *QuerySnapshot) quantileIndex(target int64) int {
	lo := SearchGt(qs.QKeys, target)
	if lo >= len(qs.QVals) {
		lo = len(qs.QVals) - 1
	}
	return lo
}

// Rank answers a rank query from the snapshot.
func (qs *QuerySnapshot) Rank(x uint64) int64 {
	// Find the first entry that fails the comparison, then step back.
	// The strictness branch is hoisted out of the probe loop.
	var lo int
	if qs.RStrict {
		lo = SearchGe(qs.RVals, x)
	} else {
		lo = SearchGt(qs.RVals, x)
	}
	if lo == 0 {
		return 0
	}
	return qs.RRanks[lo-1]
}

// QuantileBatch answers one quantile per fraction by binary search.
func (qs *QuerySnapshot) QuantileBatch(phis []float64) []uint64 {
	out := make([]uint64, len(phis))
	qs.AppendQuantileBatch(out[:0], phis)
	return out
}

// AppendQuantileBatch appends one quantile per fraction to dst; callers
// on the zero-allocation path pass a reused buffer.
func (qs *QuerySnapshot) AppendQuantileBatch(dst []uint64, phis []float64) []uint64 {
	if qs.N <= 0 || len(qs.QVals) == 0 {
		panic(ErrEmpty)
	}
	for _, phi := range phis {
		CheckPhi(phi)
		dst = append(dst, qs.QVals[qs.quantileIndex(TargetRank(phi, qs.N))])
	}
	return dst
}

// RankBatch answers one rank per value by binary search.
func (qs *QuerySnapshot) RankBatch(xs []uint64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = qs.Rank(x)
	}
	return out
}

// AppendWeightedSnapshot flattens a value-sorted sample set into qs:
// both sides hold the same (value, cumulative weight) pairs, and N
// is the total sample weight (the quantile target base the sampling
// families use). Answers are byte-identical to WeightedQuantile[s] and
// WeightedRank[s] over the same samples. It is the reference the run
// merge's snapshots (AppendRunsSnapshot) are tested against.
func AppendWeightedSnapshot(qs *QuerySnapshot, sorted []WeightedValue) {
	qs.Reset()
	var cum int64
	for _, it := range sorted {
		cum += it.W
		qs.QVals = append(qs.QVals, it.V)
		qs.QKeys = append(qs.QKeys, cum)
		// rank(x) = total weight of samples < x: the same pairs under
		// the strict comparison.
		qs.RVals = append(qs.RVals, it.V)
		qs.RRanks = append(qs.RRanks, cum)
	}
	qs.N = cum
	qs.RStrict = true
}
