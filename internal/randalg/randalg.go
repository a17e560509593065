// Package randalg implements Random, the paper's simplified randomized
// quantile summary (§2.2) — the new variant the study finds to be the
// best randomized algorithm overall.
//
// With h = ⌈log₂(1/ε)⌉, the algorithm keeps b = h+1 buffers of
// s = ⌈(1/ε)·√log₂(1/ε)⌉ elements each, for O((1/ε)·log^1.5(1/ε)) space
// total. A buffer at level l holds s elements sampled one-per-2^l from a
// stretch of 2^l·s stream elements; the active level grows as
// l = max{0, ⌈log₂(n/(s·2^(h−1)))⌉} so early data is kept exactly and
// later data is sampled more sparsely. When every buffer is full, two
// buffers at the lowest occupied level merge: their elements are unioned
// in sorted order and either the odd or the even positions survive, each
// with probability 1/2, yielding one buffer at the next level. Both the
// sampling and the merging are unbiased, and the paper's Hoeffding
// argument shows all quantiles are ε-correct with constant probability.
package randalg

import (
	"fmt"
	"math"
	"slices"

	"streamquantiles/internal/core"
	"streamquantiles/internal/xhash"
)

// buffer is one of the b sample buffers.
type buffer struct {
	level int
	data  []uint64 // sorted once full
	full  bool
}

// Random is the randomized sample-based summary. It is safe for
// sequential use only.
type Random struct {
	eps     float64
	h       int
	s       int
	n       int64
	compact bool // lazy buffer allocation (NewCompact)

	bufs []*buffer
	cur  *buffer // buffer currently being filled, nil between buffers

	// Per-block sampling state for the buffer being filled: each block of
	// 2^level consecutive elements contributes the element at a uniformly
	// chosen offset.
	blockSize int64
	blockPos  int64
	pickAt    int64
	candidate uint64

	rng *xhash.SplitMix64
}

// New returns an empty Random summary with error parameter eps in (0, 1),
// seeded deterministically from seed. Buffers are pre-allocated, so the
// footprint is fixed by ε alone — the behavior the paper measures
// (§4.2.5: "the buffers are pre-allocated according to ε").
func New(eps float64, seed uint64) *Random {
	return newRandom(eps, seed, false)
}

// NewCompact is New with lazy buffer allocation: buffers grow as data
// arrives, so short streams cost proportional space instead of the full
// ε-determined footprint. The algorithm and its guarantees are
// identical; only SpaceBytes differs. Used by the sliding-window
// summary, whose blocks summarize bounded stretches.
func NewCompact(eps float64, seed uint64) *Random {
	return newRandom(eps, seed, true)
}

// sizeParams computes h = ⌈log₂(1/ε)⌉ (floored at 1) and s = ⌈√h/ε⌉ in
// floating point, so callers — the codec in particular — can veto an
// implausible footprint before any allocation happens. (Converting an
// out-of-range float to int is undefined in Go, so the check must run
// on the float values.)
func sizeParams(eps float64) (hf, sf float64) {
	hf = math.Ceil(math.Log2(1 / eps))
	if hf < 1 {
		hf = 1
	}
	return hf, math.Ceil(math.Sqrt(hf) / eps)
}

func newRandom(eps float64, seed uint64, compact bool) *Random {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("randalg: error parameter %v outside (0, 1)", eps))
	}
	hf, sf := sizeParams(eps)
	h, s := int(hf), int(sf)
	r := &Random{
		eps:     eps,
		h:       h,
		s:       s,
		compact: compact,
		bufs:    make([]*buffer, 0, h+1),
		rng:     xhash.NewSplitMix64(seed),
	}
	for i := 0; i < h+1; i++ {
		b := &buffer{}
		if !compact {
			b.data = make([]uint64, 0, s)
		}
		r.bufs = append(r.bufs, b)
	}
	return r
}

// Eps returns the error parameter.
func (r *Random) Eps() float64 { return r.eps }

// BufferCount returns b = h+1.
func (r *Random) BufferCount() int { return len(r.bufs) }

// BufferSize returns s.
func (r *Random) BufferSize() int { return r.s }

// Count implements core.Summary.
func (r *Random) Count() int64 { return r.n }

// activeLevel computes l = max{0, ⌈log₂(n/(s·2^(h−1)))⌉} for the current n.
func (r *Random) activeLevel() int {
	den := float64(r.s) * math.Pow(2, float64(r.h-1))
	l := int(math.Ceil(math.Log2(float64(r.n+1) / den)))
	if l < 0 {
		l = 0
	}
	return l
}

// Update implements core.CashRegister.
func (r *Random) Update(x uint64) {
	r.n++
	if r.cur == nil {
		r.startBuffer()
	}

	// One uniformly positioned sample per block of 2^level elements.
	if r.blockPos == r.pickAt {
		r.candidate = x
	}
	r.blockPos++
	if r.blockPos == r.blockSize {
		r.cur.data = append(r.cur.data, r.candidate)
		r.blockPos = 0
		r.pickAt = int64(r.rng.Uint64n(uint64(r.blockSize)))
		if len(r.cur.data) == r.s {
			r.finishBuffer()
		}
	}
}

// startBuffer claims an empty buffer (merging to create one if necessary)
// and initializes its sampling state at the current active level.
func (r *Random) startBuffer() {
	b := r.emptyBuffer()
	if b == nil {
		r.mergeLowest()
		b = r.emptyBuffer()
	}
	b.level = r.activeLevel()
	r.cur = b
	r.blockSize = int64(1) << b.level
	r.blockPos = 0
	r.pickAt = int64(r.rng.Uint64n(uint64(r.blockSize)))
}

func (r *Random) emptyBuffer() *buffer {
	for _, b := range r.bufs {
		if !b.full && b != r.cur {
			return b
		}
	}
	return nil
}

func (r *Random) finishBuffer() {
	slices.Sort(r.cur.data)
	r.cur.full = true
	r.cur = nil
}

// mergeLowest merges the two full buffers with the lowest levels into one
// buffer, freeing one slot. When the lowest occupied level holds at least
// two buffers this is exactly the paper's rule; in the rare state where
// every full buffer sits at a distinct level, the lower of the two is
// first promoted — each element kept with probability 1/2 and the level
// incremented, an unbiased re-sampling — until the levels match.
func (r *Random) mergeLowest() {
	a, b := r.selectMergePair()
	if a == nil || b == nil {
		//lint:ignore SQ003 corruption guard: mergeLowest only runs with all buffers full, so this is unreachable
		panic("randalg: mergeLowest with fewer than two full buffers")
	}
	for a.level < b.level {
		promote(a, r.rng)
	}
	mergeInto(a, b, r.rng)
}

// selectMergePair returns two full buffers at the lowest level holding at
// least two of them. If every full buffer sits at a distinct level (a
// rare state possible after Merge), it falls back to the two lowest
// levels; the caller promotes the lower buffer to equalize.
func (r *Random) selectMergePair() (a, b *buffer) {
	var full []*buffer
	for _, x := range r.bufs {
		if x.full {
			full = append(full, x)
		}
	}
	slices.SortStableFunc(full, func(p, q *buffer) int { return p.level - q.level })
	for i := 0; i+1 < len(full); i++ {
		if full[i].level == full[i+1].level {
			return full[i+1], full[i] // same level: order irrelevant
		}
	}
	if len(full) >= 2 {
		return full[0], full[1] // distinct levels: promote full[0] up
	}
	return nil, nil
}

// promote raises a buffer one level by keeping each element with
// probability 1/2; the per-element weight doubles, so the buffer remains
// an unbiased sample of its stretch of the stream.
func promote(b *buffer, rng *xhash.SplitMix64) {
	out := b.data[:0]
	for _, v := range b.data {
		if rng.Bool() {
			out = append(out, v)
		}
	}
	b.data = out
	b.level++
}

// mergeInto merges b into a: union in sorted order, keep odd or even
// positions with equal probability, result at level max(level)+1. b is
// emptied.
func mergeInto(a, b *buffer, rng *xhash.SplitMix64) {
	merged := make([]uint64, 0, len(a.data)+len(b.data))
	i, j := 0, 0
	for i < len(a.data) && j < len(b.data) {
		if a.data[i] <= b.data[j] {
			merged = append(merged, a.data[i])
			i++
		} else {
			merged = append(merged, b.data[j])
			j++
		}
	}
	merged = append(merged, a.data[i:]...)
	merged = append(merged, b.data[j:]...)

	start := 0
	if rng.Bool() {
		start = 1
	}
	out := a.data[:0]
	for k := start; k < len(merged); k += 2 {
		out = append(out, merged[k])
	}
	lv := a.level
	if b.level > lv {
		lv = b.level
	}
	a.data = out
	a.level = lv + 1
	a.full = true

	b.data = b.data[:0]
	b.full = false
	b.level = 0
}

// Clone returns a deep copy of the summary, including the RNG state, so
// the copy can be merged or advanced without disturbing the original.
func (r *Random) Clone() *Random {
	c := &Random{
		eps:       r.eps,
		h:         r.h,
		s:         r.s,
		compact:   r.compact,
		n:         r.n,
		blockSize: r.blockSize,
		blockPos:  r.blockPos,
		pickAt:    r.pickAt,
		candidate: r.candidate,
		rng:       xhash.NewSplitMix64(0),
	}
	c.rng.Restore(r.rng.State())
	for _, b := range r.bufs {
		nb := &buffer{level: b.level, full: b.full}
		capWant := cap(b.data)
		if !r.compact && capWant < r.s {
			capWant = r.s
		}
		nb.data = make([]uint64, len(b.data), capWant)
		copy(nb.data, b.data)
		c.bufs = append(c.bufs, nb)
		if b == r.cur {
			c.cur = nb
		}
	}
	return c
}

// ListRuns implements core.RunLister: every retained element with its
// weight 2^level, one run per non-empty buffer. Full buffers are sorted;
// the merge sorts a copy of the partially filled one.
func (r *Random) ListRuns(rs *core.Runs) {
	for _, b := range r.bufs {
		rs.AddRun(b.data, int64(1)<<b.level)
	}
}

// Rank implements core.Summary: r̂(x) = Σ_X 2^l(X)·|{v ∈ X : v < x}|.
func (r *Random) Rank(x uint64) int64 { return core.RunsRank(r, x) }

// Quantile implements core.Summary.
func (r *Random) Quantile(phi float64) uint64 {
	if r.n == 0 {
		panic(core.ErrEmpty)
	}
	return core.RunsQuantile(r, phi)
}

// QuantileBatch implements core.QuantileBatcher: the buffers are merged
// once for the whole batch.
func (r *Random) QuantileBatch(phis []float64) []uint64 {
	if r.n == 0 {
		panic(core.ErrEmpty)
	}
	return core.RunsQuantiles(r, phis)
}

// RankBatch implements core.QuantileBatcher.
func (r *Random) RankBatch(xs []uint64) []int64 { return core.RunsRanks(r, xs) }

// AppendQuerySnapshot implements core.Snapshotter.
func (r *Random) AppendQuerySnapshot(qs *core.QuerySnapshot) { core.AppendRunsSnapshot(qs, r) }

// Merge folds other into r, preserving the one-pass guarantees in the
// mergeable-summary sense (the algorithm is inspired by the mergeable
// summaries of Agarwal et al.): buffer sets are combined and the lowest
// levels merged pairwise until the configured number of buffers remains.
// Both summaries must have the same eps.
// checkCompatible validates a merge partner: both summaries must have
// been built with bit-identical eps (exact comparison is the intent, so
// it goes through Float64bits).
func (r *Random) checkCompatible(other *Random) {
	if math.Float64bits(other.eps) != math.Float64bits(r.eps) {
		panic("randalg: merging summaries with different eps")
	}
}

func (r *Random) Merge(other *Random) {
	r.checkCompatible(other)
	// Close out partially filled buffers; their samples are already
	// weighted by their level.
	if r.cur != nil && len(r.cur.data) > 0 {
		r.finishPartial(r.cur)
	}
	r.cur = nil
	if other.cur != nil && len(other.cur.data) > 0 {
		other.finishPartial(other.cur)
	}
	other.cur = nil

	for _, b := range other.bufs {
		if b.full {
			nb := &buffer{level: b.level, data: slices.Clone(b.data), full: true}
			r.bufs = append(r.bufs, nb)
		}
	}
	r.n += other.n

	for r.fullCount() > r.h+1 {
		r.mergeLowest()
		r.compactSlots()
	}
	// A merge that needed no mergeLowest still appended slots; drop the
	// surplus, or repeated merges grow bufs past h+1.
	r.compactSlots()
}

func (r *Random) finishPartial(b *buffer) {
	slices.Sort(b.data)
	b.full = true
}

func (r *Random) fullCount() int {
	c := 0
	for _, b := range r.bufs {
		if b.full {
			c++
		}
	}
	return c
}

// compactSlots drops surplus empty slots beyond the configured b. One
// empty slot survives only while the full buffers leave room for it:
// ingestion fills every empty slot it finds.
func (r *Random) compactSlots() {
	if len(r.bufs) <= r.h+1 {
		return
	}
	room := r.h + 1 - r.fullCount()
	kept := r.bufs[:0]
	empties := 0
	for _, b := range r.bufs {
		if b.full {
			kept = append(kept, b)
		} else if empties == 0 && room > 0 {
			kept = append(kept, b)
			empties++
		}
	}
	for len(kept) < r.h+1 {
		kept = append(kept, &buffer{data: make([]uint64, 0, r.s)})
	}
	r.bufs = kept
}

// SpaceBytes implements core.Summary: each buffer is charged its
// capacity (the full s for pre-allocated summaries, the grown capacity
// for compact ones) plus level/flag words, plus scalar state.
func (r *Random) SpaceBytes() int64 {
	var words int64
	for _, b := range r.bufs {
		c := cap(b.data)
		if !r.compact && c < r.s {
			c = r.s
		}
		words += int64(c) + 2
	}
	words += 10
	return words * core.WordBytes
}
