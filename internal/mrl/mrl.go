// Package mrl implements MRL99, the randomized quantile algorithm of
// Manku, Rajagopalan and Lindsay (SIGMOD 1999): the NEW/COLLAPSE buffer
// framework of their 1998 deterministic algorithm driven by non-uniform
// random sampling, giving O((1/ε)·log²(1/ε)) space without prior
// knowledge of the stream length.
//
// The summary keeps b buffers of capacity k. NEW fills an empty buffer
// with k elements sampled one-per-2^l from the stream, where the sampling
// level l rises as the stream grows (the same schedule as the paper's
// simplified Random algorithm, which MRL99 inspired). When no buffer is
// empty, COLLAPSE merges all buffers at the lowest occupied level into a
// single buffer: conceptually each element is replicated by its buffer's
// weight, and the output keeps the k elements at positions
// offset + i·(W/k) of the weighted merged sequence, with a uniformly
// random offset — the randomized selection that makes the estimate
// unbiased.
//
// Parameters are set from ε in the closed form b = ⌈log₂(1/ε)⌉ + 1 and
// k = ⌈(1/ε)·log₂²(1/ε)/b⌉, which tracks the b·k = Θ((1/ε)·log²(1/ε))
// optimum of the MRL99 constraint optimization; the journal paper notes
// (§1.2.1) that the fine-tuned parameter choices of the original offer
// only a minor advantage over this shape.
package mrl

import (
	"fmt"
	"math"
	"slices"

	"streamquantiles/internal/core"
	"streamquantiles/internal/xhash"
)

// buffer is one weighted sample buffer.
type buffer struct {
	level  int   // sampling/collapse depth, determines default weight 2^level
	weight int64 // per-element weight
	data   []uint64
	full   bool
}

// MRL99 is the randomized Manku–Rajagopalan–Lindsay summary.
type MRL99 struct {
	eps float64
	b   int
	k   int
	n   int64

	// arena is the single b×k element slab all buffers carve their data
	// from: buffer i owns the capped window arena[i·k : (i+1)·k], so the
	// whole summary's payload is one allocation and collapses move
	// elements within it. (Merge may temporarily graft heap-backed
	// buffers; the capped views make any overflow append safely detach
	// rather than overwrite a neighbour.)
	arena []uint64
	bufs  []*buffer
	cur   *buffer

	blockSize int64
	blockPos  int64
	pickAt    int64
	candidate uint64

	collapseSc collapseScratch

	rng *xhash.SplitMix64
}

// sizeParams computes the buffer count b and buffer size k for eps in
// floating point, so callers — the codec in particular — can veto an
// implausible footprint before any allocation happens. (Converting an
// out-of-range float to int is undefined in Go, so the check must run
// on the float values.)
func sizeParams(eps float64) (bf, kf float64) {
	lg := math.Log2(1 / eps)
	if lg < 1 {
		lg = 1
	}
	bf = math.Ceil(lg) + 1
	if bf < 3 {
		bf = 3
	}
	kf = math.Ceil(lg * lg / (eps * bf))
	if kf < 4 {
		kf = 4
	}
	return bf, kf
}

// New returns an empty MRL99 summary with error parameter eps, seeded
// deterministically from seed.
func New(eps float64, seed uint64) *MRL99 {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("mrl: error parameter %v outside (0, 1)", eps))
	}
	bf, kf := sizeParams(eps)
	b, k := int(bf), int(kf)
	m := &MRL99{
		eps:   eps,
		b:     b,
		k:     k,
		arena: make([]uint64, b*k),
		bufs:  make([]*buffer, 0, b),
		rng:   xhash.NewSplitMix64(seed),
	}
	for i := 0; i < b; i++ {
		m.bufs = append(m.bufs, &buffer{data: m.arena[i*k : i*k : (i+1)*k]})
	}
	return m
}

// Eps returns the error parameter.
func (m *MRL99) Eps() float64 { return m.eps }

// BufferCount returns b.
func (m *MRL99) BufferCount() int { return m.b }

// BufferSize returns k.
func (m *MRL99) BufferSize() int { return m.k }

// Count implements core.Summary.
func (m *MRL99) Count() int64 { return m.n }

// activeLevel mirrors the sampling schedule of the Random algorithm: keep
// the first ~k·2^(b−2) elements exactly, then sample geometrically.
func (m *MRL99) activeLevel() int {
	den := float64(m.k) * math.Pow(2, float64(m.b-2))
	l := int(math.Ceil(math.Log2(float64(m.n+1) / den)))
	if l < 0 {
		l = 0
	}
	return l
}

// Update implements core.CashRegister.
func (m *MRL99) Update(x uint64) {
	m.n++
	if m.cur == nil {
		m.startBuffer()
	}
	if m.blockPos == m.pickAt {
		m.candidate = x
	}
	m.blockPos++
	if m.blockPos == m.blockSize {
		m.cur.data = append(m.cur.data, m.candidate)
		m.blockPos = 0
		m.pickAt = int64(m.rng.Uint64n(uint64(m.blockSize)))
		if len(m.cur.data) == m.k {
			slices.Sort(m.cur.data)
			m.cur.full = true
			m.cur = nil
		}
	}
}

func (m *MRL99) startBuffer() {
	b := m.emptyBuffer()
	if b == nil {
		m.collapse()
		b = m.emptyBuffer()
	}
	lv := m.activeLevel()
	b.level = lv
	b.weight = int64(1) << lv
	m.cur = b
	m.blockSize = int64(1) << lv
	m.blockPos = 0
	m.pickAt = int64(m.rng.Uint64n(uint64(m.blockSize)))
}

func (m *MRL99) emptyBuffer() *buffer {
	for _, b := range m.bufs {
		if !b.full && b != m.cur {
			return b
		}
	}
	return nil
}

// collapse merges the buffers at the lowest occupied level (at least
// two; if the lowest level holds a single buffer the next level joins the
// group) into one buffer at one level above the group's maximum.
func (m *MRL99) collapse() {
	group := m.lowestGroup()
	if len(group) < 2 {
		//lint:ignore SQ003 corruption guard: collapse only runs once every buffer is full, so this is unreachable
		panic("mrl: collapse with fewer than two buffers")
	}
	out := collapseGroup(group, m.k, m.rng, &m.collapseSc)

	// Store the result in the first group buffer; empty the rest.
	first := group[0]
	first.data = append(first.data[:0], out.data...)
	first.level = out.level
	first.weight = out.weight
	first.full = true
	for _, g := range group[1:] {
		g.data = g.data[:0]
		g.full = false
		g.level = 0
		g.weight = 0
	}
}

// lowestGroup returns all full buffers at the lowest occupied level,
// extended to the next level when the lowest holds only one buffer.
func (m *MRL99) lowestGroup() []*buffer {
	full := make([]*buffer, 0, len(m.bufs))
	for _, b := range m.bufs {
		if b.full {
			full = append(full, b)
		}
	}
	slices.SortStableFunc(full, func(a, b *buffer) int { return a.level - b.level })
	if len(full) < 2 {
		return full
	}
	end := 1
	for end < len(full) && full[end].level == full[0].level {
		end++
	}
	if end == 1 {
		// Single buffer at the lowest level: include the next level too.
		lvl := full[1].level
		end = 2
		for end < len(full) && full[end].level == lvl {
			end++
		}
	}
	return full[:end]
}

// collapsed is the output of a COLLAPSE operation.
type collapsed struct {
	level  int
	weight int64
	data   []uint64
}

// collapseScratch holds the k-way merge cursors and output staging of a
// COLLAPSE. It is owned by the summary (collapses only run inside
// single-writer ingestion), so steady-state collapses allocate nothing.
type collapseScratch struct {
	idx []int
	out []uint64
}

// collapseGroup performs the weighted MRL COLLAPSE with a random offset:
// the merged, weight-replicated sequence of all group elements is sampled
// at positions offset + i·(W/k) without materializing the replication.
// The returned data aliases sc.out and must be copied out before the
// next collapse.
func collapseGroup(group []*buffer, k int, rng *xhash.SplitMix64, sc *collapseScratch) collapsed {
	var total int64
	maxLevel := 0
	for _, g := range group {
		total += g.weight * int64(len(g.data))
		if g.level > maxLevel {
			maxLevel = g.level
		}
	}
	// The pure ingest schedule only collapses groups of exactly-k
	// buffers, where total = k·ΣW and the arithmetic below is exact.
	// Merge grafts SHORT buffers (partials closed early), making total
	// indivisible, and two naive roundings then corrupt the estimate:
	// a floored stride makes the walk want more than k samples, and the
	// sample cap silently drops the TOP of the weighted sequence (a
	// systematic upper-quantile underestimate of several ε·n); deriving
	// the weight as total/len(out) after the fact loses up to a seventh
	// of the mass to truncation. So the stride is ceiled — the sequence
	// is spanned end to end in ≤ k samples — and each sample represents
	// exactly stride positions, with the sample count floored so the
	// retained mass count·stride never exceeds total (the Invariants
	// contract caps retained weight at the stream length). The only
	// loss is the final total mod stride positions, less than one
	// sample's share.
	stride := (total + int64(k) - 1) / int64(k)
	if stride < 1 {
		stride = 1
	}
	count := total / stride
	if count < 1 {
		count = 1
	}
	offset := int64(rng.Uint64n(uint64(stride)))

	// k-way merge over the sorted group buffers, accumulating weight.
	if cap(sc.idx) < len(group) {
		sc.idx = make([]int, len(group))
	}
	if cap(sc.out) < k {
		sc.out = make([]uint64, 0, k)
	}
	idx := sc.idx[:len(group)]
	for i := range idx {
		idx[i] = 0
	}
	out := sc.out[:0]
	var cum int64
	next := offset
	for {
		// Find the group buffer with the smallest current element.
		best := -1
		for gi, g := range group {
			if idx[gi] >= len(g.data) {
				continue
			}
			if best < 0 || g.data[idx[gi]] < group[best].data[idx[best]] {
				best = gi
			}
		}
		if best < 0 {
			break
		}
		g := group[best]
		v := g.data[idx[best]]
		idx[best]++
		lo, hi := cum, cum+g.weight // v occupies weighted positions [lo, hi)
		cum = hi
		for next >= lo && next < hi && int64(len(out)) < count {
			out = append(out, v)
			next += stride
		}
	}
	sc.out = out
	return collapsed{level: maxLevel + 1, weight: stride, data: out}
}

// ListRuns implements core.RunLister: every non-empty buffer is one run.
// Full buffers are sorted when they fill or collapse; the merge sorts a
// copy of the partially filled one.
func (m *MRL99) ListRuns(rs *core.Runs) {
	for _, b := range m.bufs {
		w := b.weight
		if w == 0 {
			w = int64(1) << b.level
		}
		rs.AddRun(b.data, w)
	}
}

// Rank implements core.Summary.
func (m *MRL99) Rank(x uint64) int64 { return core.RunsRank(m, x) }

// Quantile implements core.Summary.
func (m *MRL99) Quantile(phi float64) uint64 {
	if m.n == 0 {
		panic(core.ErrEmpty)
	}
	return core.RunsQuantile(m, phi)
}

// QuantileBatch implements core.QuantileBatcher: the buffers are merged
// once for the whole batch.
func (m *MRL99) QuantileBatch(phis []float64) []uint64 {
	if m.n == 0 {
		panic(core.ErrEmpty)
	}
	return core.RunsQuantiles(m, phis)
}

// RankBatch implements core.QuantileBatcher.
func (m *MRL99) RankBatch(xs []uint64) []int64 { return core.RunsRanks(m, xs) }

// AppendQuerySnapshot implements core.Snapshotter.
func (m *MRL99) AppendQuerySnapshot(qs *core.QuerySnapshot) { core.AppendRunsSnapshot(qs, m) }

// SpaceBytes implements core.Summary: the b×k element arena plus
// per-buffer metadata, collapse scratch and scalar state.
func (m *MRL99) SpaceBytes() int64 {
	words := int64(cap(m.arena)) + int64(cap(m.collapseSc.out)) + int64(cap(m.collapseSc.idx))
	for _, b := range m.bufs {
		words += 3
		// Merge can graft heap-backed buffers outside the arena; charge
		// any such detached storage honestly.
		if c := cap(b.data); c > m.k {
			words += int64(c)
		}
	}
	words += 10
	return words * core.WordBytes
}
