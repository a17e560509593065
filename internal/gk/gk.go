// Package gk implements the Greenwald–Khanna quantile summary [GK01] in
// the three variants compared by the paper:
//
//   - Theory: the original algorithm with the band structure and the
//     periodic COMPRESS pass, giving the O((1/ε)·log(εn)) space bound.
//   - Adaptive: the variant the GK authors actually implemented — insert
//     with Δ = g_i + Δ_i − 1 and eagerly remove one removable tuple per
//     insertion, located through a min-heap (paper §2.1.1).
//   - Array: the journal version's re-implementation that buffers
//     arriving elements and merges them into a flat tuple array in batch,
//     trading pointer-chasing for sort+merge cache efficiency (§2.1.2).
//
// All variants maintain a list of tuples (v_i, g_i, Δ_i) with v_i ≤ v_{i+1}
// satisfying the GK invariants
//
//	(1)  Σ_{j≤i} g_j ≤ r(v_i) + 1 ≤ Σ_{j≤i} g_j + Δ_i
//	(2)  g_i + Δ_i ≤ ⌊2εn⌋
//
// which guarantee that every φ-quantile can be answered within εn.
package gk

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"streamquantiles/internal/core"
)

// tuple is one summary entry: a stored element v, the gap g to the
// previous tuple's minimum rank, and the rank uncertainty Δ.
type tuple struct {
	v   uint64
	g   int64
	del int64
}

// tupleWords is the accounting size of one tuple: v, g, Δ (paper counts
// each stored element or counter as one 4-byte word).
const tupleWords = 3

// tcols stores a tuple list as parallel columns (struct-of-arrays):
// vals[i], gaps[i], dels[i] together are tuple i. The hot paths — the
// sorted merge sweeps and the query scans — touch one or two columns at
// a time, so the columnar layout streams through the cache at 8 bytes
// per element instead of 24. The tuple struct survives only as the
// value carrier of tupleSeq and the merge lookahead.
type tcols struct {
	vals []uint64
	gaps []int64
	dels []int64
}

// len reports the number of stored tuples.
func (c *tcols) len() int { return len(c.vals) }

// reset truncates the columns, keeping capacity.
func (c *tcols) reset() {
	c.vals = c.vals[:0]
	c.gaps = c.gaps[:0]
	c.dels = c.dels[:0]
}

// push appends one tuple to the columns.
func (c *tcols) push(v uint64, g, del int64) {
	c.vals = append(c.vals, v)
	c.gaps = append(c.gaps, g)
	c.dels = append(c.dels, del)
}

// at returns tuple i as a value.
func (c *tcols) at(i int) tuple {
	return tuple{v: c.vals[i], g: c.gaps[i], del: c.dels[i]}
}

// ensure resets the columns and guarantees capacity for want tuples
// without further allocation.
func (c *tcols) ensure(want int) {
	if cap(c.vals) < want {
		c.vals = make([]uint64, 0, want)
		c.gaps = make([]int64, 0, want)
		c.dels = make([]int64, 0, want)
		return
	}
	c.reset()
}

// seq yields the tuples in element order, for the shared query, codec
// and invariant implementations.
func (c *tcols) seq(yield func(t tuple) bool) {
	for i, v := range c.vals {
		if !yield(tuple{v: v, g: c.gaps[i], del: c.dels[i]}) {
			return
		}
	}
}

// checkEps validates the error parameter shared by all constructors.
func checkEps(eps float64) {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("gk: error parameter %v outside (0, 1)", eps))
	}
}

// threshold returns ⌊2εn⌋, the invariant-(2) capacity at stream length n.
func threshold(eps float64, n int64) int64 {
	return int64(2 * eps * float64(n))
}

// band returns the GK band of Δ at capacity p = ⌊2εn⌋. Bands partition
// the possible Δ values so that tuples whose Δ arrived earlier (smaller
// Δ, larger capacity) sit in higher bands; COMPRESS may only merge a
// tuple into a neighbour of equal or higher band. Band 0 is reserved for
// Δ = p and the highest band for Δ = 0, following [GK01] §2.1.
func band(del, p int64) int {
	switch {
	case del == p:
		return 0
	case del == 0:
		return 64
	}
	diff := p - del
	// Bands tile the diff axis: band α covers
	// [2^(α−1) + p mod 2^(α−1), 2^α + p mod 2^α).
	for alpha := 1; alpha < 63; alpha++ {
		lo := int64(1)<<(alpha-1) + p%(int64(1)<<(alpha-1))
		hi := int64(1)<<alpha + p%(int64(1)<<alpha)
		if diff >= lo && diff < hi {
			return alpha
		}
	}
	return 63
}

// tupleSeq abstracts in-order traversal over the tuple list so the three
// variants share one query implementation.
type tupleSeq func(yield func(t tuple) bool)

// queryQuantile implements the paper's extraction rule: report v_{i−1}
// for the smallest i with Σ_{j≤i} g_j + Δ_i > 1 + ⌊φn⌋ + max_i(g_i+Δ_i)/2.
func queryQuantile(seq tupleSeq, n int64, phi float64) uint64 {
	core.CheckPhi(phi)
	if n == 0 {
		panic(core.ErrEmpty)
	}
	target := core.TargetRank(phi, n) + 1 // 1-based rank
	var maxGap int64
	seq(func(t tuple) bool {
		if t.g+t.del > maxGap {
			maxGap = t.g + t.del
		}
		return true
	})
	bound := target + maxGap/2

	var (
		prev    uint64
		havePrv bool
		rsum    int64
		ans     uint64
		found   bool
	)
	seq(func(t tuple) bool {
		rsum += t.g
		if rsum+t.del > bound {
			if havePrv {
				ans = prev
			} else {
				ans = t.v // no predecessor: first tuple is the answer
			}
			found = true
			return false
		}
		prev = t.v
		havePrv = true
		return true
	})
	if !found {
		ans = prev // ran off the end: the maximum element
	}
	return ans
}

// queryQuantiles answers a batch of fractions in two passes over the
// tuple list (one for maxGap, one cumulative scan), instead of two
// passes per fraction.
func queryQuantiles(seq tupleSeq, n int64, phis []float64) []uint64 {
	if n == 0 {
		panic(core.ErrEmpty)
	}
	order := make([]int, len(phis))
	for i := range order {
		core.CheckPhi(phis[i])
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(phis[a], phis[b]) })

	var maxGap int64
	seq(func(t tuple) bool {
		if t.g+t.del > maxGap {
			maxGap = t.g + t.del
		}
		return true
	})

	out := make([]uint64, len(phis))
	oi := 0
	var (
		prev    uint64
		havePrv bool
		rsum    int64
	)
	seq(func(t tuple) bool {
		rsum += t.g
		for oi < len(order) {
			idx := order[oi]
			bound := core.TargetRank(phis[idx], n) + 1 + maxGap/2
			if rsum+t.del <= bound {
				break
			}
			if havePrv {
				out[idx] = prev
			} else {
				out[idx] = t.v
			}
			oi++
		}
		prev = t.v
		havePrv = true
		return oi < len(order)
	})
	for ; oi < len(order); oi++ {
		out[order[oi]] = prev // ran off the end: the maximum element
	}
	return out
}

// queryRank estimates r(x) = #{y < x} as the midpoint of the feasible
// rank interval of the largest stored element strictly below x. The
// cutoff must be strict: duplicates of x itself can be stored as tuples
// of accumulated weight, and folding them in would count x's own
// occurrences into its rank — at a heavy atom that overstates r(x) by
// the atom's multiplicity and drags combined-fold quantile answers off
// the atom (the Summary contract and the duplicate-atom regression
// tests pin the strict form).
func queryRank(seq tupleSeq, x uint64) int64 {
	var (
		rsum int64
		est  int64
	)
	seq(func(t tuple) bool {
		if t.v >= x {
			return false
		}
		rsum += t.g
		est = rsum + t.del/2
		return true
	})
	return est
}

// queryRanks answers a batch of rank queries in one pass over the tuple
// list: the queries are sorted once, then a single sweep maintains the
// running midpoint estimate and flushes each query when the sweep
// reaches the first tuple at or beyond it (the same strict cutoff as
// queryRank). Results are identical to calling queryRank per value.
func queryRanks(seq tupleSeq, xs []uint64) []int64 {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })

	out := make([]int64, len(xs))
	qi := 0
	var (
		rsum int64
		est  int64
	)
	seq(func(t tuple) bool {
		for qi < len(order) && xs[order[qi]] <= t.v {
			out[order[qi]] = est
			qi++
		}
		rsum += t.g
		est = rsum + t.del/2
		return qi < len(order)
	})
	for ; qi < len(order); qi++ {
		out[order[qi]] = est
	}
	return out
}

// appendQuerySnapshot flattens the tuple list into a core.QuerySnapshot
// with byte-identical answers to queryQuantile and queryRank.
//
// Quantile side: the live rule reports v_{i−1} for the smallest i with
// rsum_i + Δ_i > target + 1 + maxGap/2, i.e. with key_i > target for
// key_i = rsum_i + Δ_i − 1 − maxGap/2. key is not monotone in i, but
// "smallest i with key_i > t" equals "smallest i with runmax(key)_i > t"
// for every t, and the running maximum is non-decreasing — binary
// searchable. A sentinel entry carries the live rule's ran-off-the-end
// answer (the last stored element).
//
// Rank side: the live estimate for x is rsum_i + Δ_i/2 of the last
// tuple with v_i < x, and 0 before the first tuple — the strict-lookup
// (RStrict) snapshot form, so duplicates of x itself never count into
// its own rank.
//
// The maxGap pass also counts the tuples, so the four columns are sized
// once, at their final length, before the fill.
func appendQuerySnapshot(seq tupleSeq, n int64, qs *core.QuerySnapshot) {
	qs.Reset()
	if n == 0 {
		return
	}
	var maxGap int64
	tuples := 0
	seq(func(t tuple) bool {
		tuples++
		if t.g+t.del > maxGap {
			maxGap = t.g + t.del
		}
		return true
	})
	qs.Grow(tuples+1, tuples) // +1: the quantile side's sentinel
	qs.N = n
	half := maxGap / 2
	var (
		rsum    int64
		runmax  int64
		prev    uint64
		havePrv bool
	)
	seq(func(t tuple) bool {
		rsum += t.g
		if rsum+t.del > runmax {
			runmax = rsum + t.del
		}
		val := t.v // no predecessor: first tuple is the answer
		if havePrv {
			val = prev
		}
		qs.QVals = append(qs.QVals, val)
		qs.QKeys = append(qs.QKeys, runmax-1-half)
		qs.RVals = append(qs.RVals, t.v)
		qs.RRanks = append(qs.RRanks, rsum+t.del/2)
		prev = t.v
		havePrv = true
		return true
	})
	qs.RStrict = true
	if havePrv {
		// Ran off the end: the live rule answers the maximum element.
		qs.QVals = append(qs.QVals, prev)
		qs.QKeys = append(qs.QKeys, math.MaxInt64)
	}
}

// checkInvariants verifies GK invariants (1) and (2) against the true
// multiset; used by the tests of all three variants. sorted is the sorted
// stream content. With duplicates, a tuple stands for one specific copy
// of v whose tie-broken rank lies anywhere in [#<v, #≤v − 1], so
// invariant (1) holds iff that interval intersects the tuple's feasible
// interval [Σg − 1, Σg − 1 + Δ]. Invariant (2) uses p = ⌊2εn⌋.
func checkInvariants(seq tupleSeq, sorted []uint64, p int64) error {
	lowerBound := func(x uint64) int64 { // #elements < x
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			if sorted[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo)
	}
	upperBound := func(x uint64) int64 { // #elements ≤ x
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			if sorted[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo)
	}
	var (
		rsum int64
		prev uint64
		i    int
		err  error
	)
	seq(func(t tuple) bool {
		if i > 0 && t.v < prev {
			err = fmt.Errorf("tuple %d out of order: %d after %d", i, t.v, prev)
			return false
		}
		rsum += t.g
		rlo, rhi := lowerBound(t.v), upperBound(t.v)-1
		if rhi < rlo {
			err = fmt.Errorf("tuple %d stores element %d not in the stream", i, t.v)
			return false
		}
		// Intersect [rsum, rsum+Δ] with [rlo+1, rhi+1] (both for r+1).
		if rsum > rhi+1 || rsum+t.del < rlo+1 {
			err = fmt.Errorf("tuple %d (v=%d): invariant (1) violated: [%d,%d] misses rank+1 range [%d,%d]",
				i, t.v, rsum, rsum+t.del, rlo+1, rhi+1)
			return false
		}
		if i > 0 && t.g+t.del > p && p > 0 {
			err = fmt.Errorf("tuple %d (v=%d): invariant (2) violated: g+Δ = %d > %d",
				i, t.v, t.g+t.del, p)
			return false
		}
		prev = t.v
		i++
		return true
	})
	return err
}
