package gk

import (
	"cmp"
	"slices"

	"streamquantiles/internal/core"
)

// Biased is the biased-quantiles extension of the GK summary (Cormode,
// Korn, Muthukrishnan, Srivastava: "Space- and time-efficient
// deterministic algorithms for biased quantiles over data streams",
// PODS 2006 — one of the problem variations the paper's introduction
// surveys). Where the uniform summaries guarantee absolute rank error
// εn, Biased guarantees *relative* rank error ε·r(v): the low quantiles
// (φ → 0) are tracked with proportionally finer resolution, which is
// what tail-latency monitoring of minima or error budgets needs. For
// high-biased data, feed the mirrored stream (^x) and mirror fractions.
//
// The structure is the GK tuple list with the rank-dependent invariant
//
//	g_i + Δ_i ≤ max(1, ⌊2ε·r_i⌋),  r_i = Σ_{j≤i} g_j,
//
// maintained by an amortized right-to-left COMPRESS sweep.
type Biased struct {
	eps      float64
	n        int64
	tuples   tcols
	spare    tcols   // merge destination, swapped with tuples each flush
	ranks    []int64 // compress-sweep prefix-rank scratch
	buf      []uint64
	maxWords int
}

// NewBiased returns an empty biased-quantile summary with relative error
// parameter eps in (0, 1).
func NewBiased(eps float64) *Biased {
	checkEps(eps)
	return &Biased{
		eps: eps,
		buf: make([]uint64, 0, minBuffer),
	}
}

// Eps returns the relative error parameter.
func (b *Biased) Eps() float64 { return b.eps }

// Count implements core.Summary.
func (b *Biased) Count() int64 { return b.n }

// TupleCount reports |L| after flushing pending elements.
func (b *Biased) TupleCount() int {
	b.Flush()
	return b.tuples.len()
}

// invariant is the rank-dependent capacity f(r) = max(1, ⌊2ε·r⌋).
func (b *Biased) invariant(r int64) int64 {
	f := int64(2 * b.eps * float64(r))
	if f < 1 {
		return 1
	}
	return f
}

// Update implements core.CashRegister. Arriving elements are buffered
// and merged in batch, the GKArray treatment applied to the biased
// invariant.
func (b *Biased) Update(x uint64) {
	b.n++
	b.buf = append(b.buf, x)
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

// Flush merges buffered elements into the tuple list.
func (b *Biased) Flush() {
	if len(b.buf) > 0 {
		b.flush()
	}
}

func (b *Biased) flush() {
	slices.Sort(b.buf)

	// Merge buffer and tuple columns in sorted order into the spare
	// column set, then swap. New elements take Δ = g_succ + Δ_succ − 1
	// from their successor tuple (0 past the end), as in GKAdaptive; the
	// biased invariant is enforced by the compress sweep below.
	b.spare.ensure(b.tuples.len() + len(b.buf))
	out := &b.spare
	ti, bi := 0, 0
	for ti < b.tuples.len() || bi < len(b.buf) {
		if bi < len(b.buf) && (ti == b.tuples.len() || b.buf[bi] < b.tuples.vals[ti]) {
			var del int64
			if ti < b.tuples.len() {
				del = b.tuples.gaps[ti] + b.tuples.dels[ti] - 1
			}
			out.push(b.buf[bi], 1, del)
			bi++
		} else {
			out.push(b.tuples.vals[ti], b.tuples.gaps[ti], b.tuples.dels[ti])
			ti++
		}
	}
	b.tuples, b.spare = b.spare, b.tuples
	b.buf = b.buf[:0]
	b.compress()

	want := b.tuples.len() / 2
	if want < minBuffer {
		want = minBuffer
	}
	if cap(b.buf) != want {
		b.buf = make([]uint64, 0, want)
	}
	if w := b.tuples.len()*tupleWords + cap(b.buf); w > b.maxWords {
		b.maxWords = w
	}
}

// compress merges tuple i into i+1 when the result respects the biased
// invariant at i+1's rank; sweeping right-to-left keeps ranks valid as
// tuples disappear (r_{i+1} only shrinks by already-processed merges to
// its right, never by merges to its left).
func (b *Biased) compress() {
	k := b.tuples.len()
	if k < 3 {
		return
	}
	// Prefix ranks, computed over the gap column alone.
	if cap(b.ranks) < k {
		b.ranks = make([]int64, k)
	}
	ranks := b.ranks[:k]
	var rsum int64
	for i, g := range b.tuples.gaps {
		rsum += g
		ranks[i] = rsum
	}
	// Right-to-left merge sweep; next tracks the nearest surviving tuple,
	// so chains of removals fold into one survivor. The last tuple (the
	// maximum) is never removed. Merging into next never changes the
	// prefix rank at next, so the pre-computed ranks stay valid.
	gaps, dels := b.tuples.gaps, b.tuples.dels
	kept := k
	next := k - 1
	// i stops at 1: the first tuple is the exact minimum and permanent.
	for i := next - 1; i >= 1; i-- {
		if gaps[i]+gaps[next]+dels[next] <= b.invariant(ranks[next]) {
			gaps[next] += gaps[i]
			gaps[i] = 0 // mark removed
			kept--
		} else {
			next = i
		}
	}
	if kept != k {
		// Compact all three columns in place over the survivors.
		w := 0
		for i := 0; i < k; i++ {
			if gaps[i] != 0 {
				b.tuples.vals[w] = b.tuples.vals[i]
				gaps[w] = gaps[i]
				dels[w] = dels[i]
				w++
			}
		}
		b.tuples.vals = b.tuples.vals[:w]
		b.tuples.gaps = gaps[:w]
		b.tuples.dels = dels[:w]
	}
}

// Quantile implements core.Summary with the relative-error extraction
// rule: report v_{i−1} for the first i with r_i + Δ_i > r + f(r)/2.
func (b *Biased) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if b.n == 0 {
		panic(core.ErrEmpty)
	}
	b.Flush()
	target := core.TargetRank(phi, b.n) + 1
	bound := target + b.invariant(target)/2
	var (
		rsum int64
		prev uint64
		have bool
	)
	for i, g := range b.tuples.gaps {
		rsum += g
		if rsum+b.tuples.dels[i] > bound {
			if have {
				return prev
			}
			return b.tuples.vals[i]
		}
		prev = b.tuples.vals[i]
		have = true
	}
	return prev
}

// QuantileBatch implements core.QuantileBatcher. The biased bound
// target + f(target)/2 is non-decreasing in the target, so sorting the
// fractions once lets a single sweep over the tuple list flush every
// query at its first qualifying tuple, exactly as the per-φ rule.
func (b *Biased) QuantileBatch(phis []float64) []uint64 {
	if b.n == 0 {
		panic(core.ErrEmpty)
	}
	b.Flush()
	order := make([]int, len(phis))
	for i := range order {
		core.CheckPhi(phis[i])
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(phis[x], phis[y]) })

	out := make([]uint64, len(phis))
	oi := 0
	var (
		rsum int64
		prev uint64
		have bool
	)
	for i, g := range b.tuples.gaps {
		rsum += g
		v, del := b.tuples.vals[i], b.tuples.dels[i]
		for oi < len(order) {
			idx := order[oi]
			target := core.TargetRank(phis[idx], b.n) + 1
			if rsum+del <= target+b.invariant(target)/2 {
				break
			}
			if have {
				out[idx] = prev
			} else {
				out[idx] = v
			}
			oi++
		}
		if oi == len(order) {
			break
		}
		prev = v
		have = true
	}
	for ; oi < len(order); oi++ {
		out[order[oi]] = prev
	}
	return out
}

// RankBatch implements core.QuantileBatcher.
func (b *Biased) RankBatch(xs []uint64) []int64 {
	b.Flush()
	return queryRanks(b.seq, xs)
}

// Rank implements core.Summary.
func (b *Biased) Rank(x uint64) int64 {
	b.Flush()
	return queryRank(b.seq, x)
}

// seq yields the tuples in element order. Callers flush first.
func (b *Biased) seq(yield func(t tuple) bool) {
	b.tuples.seq(yield)
}

// SpaceBytes implements core.Summary. The retained merge double-buffer
// and rank scratch are charged at capacity.
func (b *Biased) SpaceBytes() int64 {
	words := int64(b.tuples.len()+cap(b.spare.vals))*tupleWords +
		int64(cap(b.ranks)) + int64(cap(b.buf)) + 4
	return words * core.WordBytes
}
