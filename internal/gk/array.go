package gk

import (
	"slices"

	"streamquantiles/internal/core"
)

// Array is the GKArray variant introduced by the journal version of the
// paper (§2.1.2): tuples live in a flat sorted array; arriving elements
// collect in a buffer of size Θ(|L|) and are merged into the array in one
// sorted sweep when the buffer fills. During the merge each tuple —
// pre-existing or new — is dropped when removable, exactly the
// GKAdaptive rule, but executed with sort+merge instead of per-element
// tree and heap searches, which is substantially more cache-friendly.
type Array struct {
	eps    float64
	n      int64
	tuples tcols
	spare  tcols // merge destination, swapped with tuples after each flush
	buf    []uint64
	maxLen int // high-water mark of len(tuples)+cap(buf), for accounting
}

// minBuffer bounds the batch size from below so tiny summaries still
// amortize their sorting cost.
const minBuffer = 64

// NewArray returns an empty GKArray summary with error parameter eps.
func NewArray(eps float64) *Array {
	checkEps(eps)
	return &Array{
		eps: eps,
		buf: make([]uint64, 0, minBuffer),
	}
}

// Eps returns the summary's error parameter.
func (a *Array) Eps() float64 { return a.eps }

// Count implements core.Summary.
func (a *Array) Count() int64 { return a.n }

// TupleCount reports |L| after flushing pending elements.
func (a *Array) TupleCount() int {
	a.Flush()
	return a.tuples.len()
}

// Update implements core.CashRegister.
func (a *Array) Update(x uint64) {
	a.n++
	a.buf = append(a.buf, x)
	if len(a.buf) == cap(a.buf) {
		a.flush()
	}
}

// Flush merges any buffered elements into the tuple array. Queries call
// it implicitly; it is exported for deterministic space measurement.
func (a *Array) Flush() {
	if len(a.buf) > 0 {
		a.flush()
	}
}

func (a *Array) flush() {
	slices.Sort(a.buf)
	p := threshold(a.eps, a.n)

	// mergeSorted (shared with the batch paths, see batch.go) applies the
	// removability rule g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋ through a
	// one-step lookahead during the merge. The first tuple of the merged
	// list (the exact minimum) is never removed, mirroring GK01's
	// boundary handling; the last never reaches the removability check.
	// The merge writes into the spare column set, which then swaps with
	// the live one — steady state allocates nothing.
	a.spare.ensure(a.tuples.len() + len(a.buf))
	mergeSorted(&a.tuples, a.buf, p, &a.spare)
	a.tuples, a.spare = a.spare, a.tuples

	// Resize the buffer to Θ(|L|) for the next batch.
	want := a.tuples.len()
	if want < minBuffer {
		want = minBuffer
	}
	if cap(a.buf) != want {
		a.buf = make([]uint64, 0, want)
	} else {
		a.buf = a.buf[:0]
	}
	if hw := a.tuples.len()*tupleWords + cap(a.buf); hw > a.maxLen {
		a.maxLen = hw
	}
}

// Quantile implements core.Summary. It flushes pending elements first.
func (a *Array) Quantile(phi float64) uint64 {
	a.Flush()
	return queryQuantile(a.seq, a.n, phi)
}

// QuantileBatch implements core.QuantileBatcher.
func (a *Array) QuantileBatch(phis []float64) []uint64 {
	a.Flush()
	return queryQuantiles(a.seq, a.n, phis)
}

// RankBatch implements core.QuantileBatcher.
func (a *Array) RankBatch(xs []uint64) []int64 {
	a.Flush()
	return queryRanks(a.seq, xs)
}

// AppendQuerySnapshot implements core.Snapshotter.
func (a *Array) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	a.Flush()
	appendQuerySnapshot(a.seq, a.n, qs)
}

// ListRuns implements core.RunLister: the tuples as one weighted run
// (see listRuns). It flushes pending elements first.
func (a *Array) ListRuns(rs *core.Runs) {
	a.Flush()
	listRuns(a.seq, a.tuples.len(), rs)
}

// Rank implements core.Summary. It flushes pending elements first.
func (a *Array) Rank(x uint64) int64 {
	a.Flush()
	return queryRank(a.seq, x)
}

// SpaceBytes implements core.Summary: 3 words per tuple (live columns
// plus the retained merge double-buffer) plus the buffer capacity plus
// scalars. Buffers are charged at capacity because they are
// pre-allocated.
func (a *Array) SpaceBytes() int64 {
	words := int64(a.tuples.len()+cap(a.spare.vals))*tupleWords + int64(cap(a.buf)) + 4
	return words * core.WordBytes
}

func (a *Array) seq(yield func(t tuple) bool) {
	a.tuples.seq(yield)
}
