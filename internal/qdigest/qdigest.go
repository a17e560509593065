// Package qdigest implements the q-digest quantile summary of
// Shrivastava, Buragohain, Agrawal and Suri (SenSys 2004) in the fast,
// hash-addressed form the paper benchmarks as FastQDigest.
//
// A q-digest summarizes a stream over the fixed universe [0, u), u a
// power of two, by maintaining counts on nodes of the dyadic (binary)
// tree over the universe. A node keeps weight only while the digest
// property holds — a stored non-root node v and its sibling and parent
// together hold more than ⌊n/k⌋ weight — otherwise the weights are folded
// into the parent by COMPRESS. The digest then has O(k) nodes and rank
// queries err by at most (log₂ u)·n/k, so k = ⌈log₂(u)/ε⌉ gives an
// ε-approximate summary of size O((1/ε)·log u).
//
// It is the only deterministic *mergeable* summary in the study: two
// digests over the same universe combine by adding node weights, which
// makes it the method of choice for sensor-network style aggregation
// even though it never wins the streaming benchmarks (paper §4.2.4).
package qdigest

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"streamquantiles/internal/core"
)

// Digest is a q-digest over the universe [0, 2^bits).
//
// Nodes are addressed heap-style: the root is 1, node i has children 2i
// and 2i+1, and leaf u+x represents the value x. The node set lives in a
// hash map so updates touch only the leaf, with COMPRESS amortized by
// running each time the stream doubles.
type Digest struct {
	bits  int
	u     uint64 // universe size 2^bits
	k     int64  // compression factor
	eps   float64
	n     int64
	nodes map[uint64]int64

	buf          []uint64 // pending leaf updates, bulk-applied
	nextCmp      int64    // run COMPRESS when n reaches this
	compressions int64    // number of COMPRESS invocations (observability)

	// Query-path scratch, struct-owned: queries drain the buffer and so
	// already demand the same exclusivity as updates (the Safe wrapper
	// enforces it). Rebuilt per query, allocation-free at steady state.
	snap   snapCols
	nodeSc []node
	spare  []node
	rvals  []uint64
	rranks []int64
}

// maxBits bounds the universe so node ids (2u) fit comfortably in uint64.
const maxBits = 62

// bufCap is the pending-update buffer size of the fast variant.
const bufCap = 1024

// New returns an empty q-digest with error parameter eps over the
// universe [0, 2^bits).
func New(eps float64, bits int) *Digest {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("qdigest: error parameter %v outside (0, 1)", eps))
	}
	if bits < 1 || bits > maxBits {
		panic(fmt.Sprintf("qdigest: universe bits %d outside [1, %d]", bits, maxBits))
	}
	k := int64(math.Ceil(float64(bits) / eps))
	return &Digest{
		bits:    bits,
		u:       uint64(1) << bits,
		k:       k,
		eps:     eps,
		nodes:   make(map[uint64]int64),
		buf:     make([]uint64, 0, bufCap),
		nextCmp: 1,
	}
}

// Eps returns the error parameter.
func (d *Digest) Eps() float64 { return d.eps }

// UniverseBits returns log₂ u.
func (d *Digest) UniverseBits() int { return d.bits }

// K returns the compression factor ⌈log₂(u)/ε⌉.
func (d *Digest) K() int64 { return d.k }

// Count implements core.Summary.
func (d *Digest) Count() int64 { return d.n }

// NodeCount reports the number of stored tree nodes after draining the
// update buffer.
func (d *Digest) NodeCount() int {
	d.drain()
	return len(d.nodes)
}

// Compressions reports how many COMPRESS passes have run.
func (d *Digest) Compressions() int64 { return d.compressions }

// checkElement validates that x fits the digest's fixed universe, the
// documented contract of Update.
func (d *Digest) checkElement(x uint64) {
	if x >= d.u {
		panic(fmt.Sprintf("qdigest: element %d outside universe [0, %d)", x, d.u))
	}
}

// Update implements core.CashRegister.
func (d *Digest) Update(x uint64) {
	d.checkElement(x)
	d.n++
	d.buf = append(d.buf, x)
	if len(d.buf) == cap(d.buf) || d.n >= d.nextCmp {
		d.drain()
	}
}

// drain applies buffered leaf increments and runs COMPRESS when the
// stream has doubled since the last pass or the node set outgrew its
// post-compress bound — the trigger that keeps the structure O(k)-sized
// with O(1) amortized work per update.
func (d *Digest) drain() {
	for _, x := range d.buf {
		d.nodes[d.u+x]++
	}
	d.buf = d.buf[:0]
	if d.n >= d.nextCmp || int64(len(d.nodes)) > 6*d.k {
		d.compress()
		d.nextCmp = 2 * d.n
	}
}

// compress restores the digest property bottom-up: any stored non-root
// node whose triangle (self + sibling + parent) fits within ⌊n/k⌋ is
// folded into its parent. Folds cascade within a single pass: a parent
// created by a fold is appended to its level's worklist and reconsidered
// when the sweep reaches that level.
func (d *Digest) compress() {
	d.compressions++
	capacity := d.n / d.k
	if capacity <= 0 {
		return
	}
	levels := make([][]uint64, d.bits+1)
	for id := range d.nodes {
		levels[d.level(id)] = append(levels[d.level(id)], id)
	}
	for lv := d.bits; lv >= 1; lv-- {
		for _, id := range levels[lv] {
			c, ok := d.nodes[id]
			if !ok {
				continue // already folded as a sibling
			}
			sib := id ^ 1
			par := id >> 1
			total := c + d.nodes[sib] + d.nodes[par]
			if total <= capacity {
				d.nodes[par] = total
				delete(d.nodes, id)
				delete(d.nodes, sib)
				levels[lv-1] = append(levels[lv-1], par)
			}
		}
	}
}

// level returns the depth of node id: 0 for the root, bits for leaves.
func (d *Digest) level(id uint64) int { return bits.Len64(id) - 1 }

// span returns the universe interval [lo, hi] covered by node id.
func (d *Digest) span(id uint64) (lo, hi uint64) {
	lv := d.level(id)
	width := d.bits - lv // log2 of interval length
	idx := id - (uint64(1) << lv)
	lo = idx << width
	hi = lo + (uint64(1)<<width - 1)
	return lo, hi
}

// snapCols is the columnar post-order snapshot: parallel lo/hi/weight
// columns sorted by (interval hi, interval size) — the traversal used
// for rank accumulation — plus the running prefix weight, which turns
// quantile extraction into a single search on a sorted column.
type snapCols struct {
	los, his []uint64
	ws       []int64
	prefix   []int64 // prefix[i] = Σ ws[0..i]
}

func (s *snapCols) reset() {
	s.los, s.his = s.los[:0], s.his[:0]
	s.ws, s.prefix = s.ws[:0], s.prefix[:0]
}

// node is one stored node as its heap id and weight: the record the
// snapshot sorts.
type node struct {
	id uint64
	w  int64
}

// sortKey is the ascending sort key of node id: its lo when byLo, else
// its post-order index 2·hi − popcount(hi) + w for a node of width
// 2^w. The index counts the dyadic intervals that end before hi
// (1 + the trailing zeros of x+1 end at each x < hi, which sums to
// 2·hi − popcount(hi)) plus the w narrower ones that end at hi, so one
// key below 2^(bits+1) carries the (hi ascending, width ascending)
// post-order for every universe up to maxBits. (hi, width) identifies a
// dyadic interval uniquely, so the order is total and the map's
// iteration order cannot leak through.
func (d *Digest) sortKey(id uint64, byLo bool) uint64 {
	lo, hi := d.span(id)
	if byLo {
		return lo
	}
	w := d.bits + 1 - bits.Len64(id)
	return 2*hi - uint64(bits.OnesCount64(hi)) + uint64(w)
}

// radixBits is the digit width of sortNodes.
const radixBits = 11

// sortNodes sorts nodes by sortKey with a stable LSD radix sort over
// the key's bits+1 bits, using d.spare as the other buffer; it returns
// the sorted slice and leaves the other buffer in d.spare. A pass whose
// digit is the same for every node moves nothing.
func (d *Digest) sortNodes(nodes []node, byLo bool) []node {
	const mask = 1<<radixBits - 1
	var count [1 << radixBits]int
	for shift := 0; shift <= d.bits; shift += radixBits {
		clear(count[:])
		for _, nd := range nodes {
			count[d.sortKey(nd.id, byLo)>>shift&mask]++
		}
		if len(nodes) == 0 || count[d.sortKey(nodes[0].id, byLo)>>shift&mask] == len(nodes) {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		out := slices.Grow(d.spare[:0], len(nodes))[:len(nodes)]
		for _, nd := range nodes {
			k := d.sortKey(nd.id, byLo) >> shift & mask
			out[count[k]] = nd
			count[k]++
		}
		nodes, d.spare = out, nodes
	}
	return nodes
}

// Flush drains the pending update buffer into the node map. Queries do
// this implicitly; Flush lets callers — notably the Safe wrappers,
// which use it to detect query-time mutation — force it explicitly.
func (d *Digest) Flush() { d.drain() }

// snapshot rebuilds the columnar post-order view in d.snap. All scratch
// is struct-owned: queries drain the pending buffer (a mutation), so the
// digest already requires external synchronization between queries.
func (d *Digest) snapshot() *snapCols {
	d.drain()
	nodes := d.nodeSc[:0]
	for id, w := range d.nodes {
		nodes = append(nodes, node{id: id, w: w})
	}
	post := d.sortNodes(nodes, false)
	d.nodeSc = post
	s := &d.snap
	s.reset()
	var cum int64
	for _, nd := range post {
		lo, hi := d.span(nd.id)
		cum += nd.w
		s.los = append(s.los, lo)
		s.his = append(s.his, hi)
		s.ws = append(s.ws, nd.w)
		s.prefix = append(s.prefix, cum)
	}
	return s
}

// Quantile implements core.Summary: report the right endpoint of the
// post-order node where the accumulated weight reaches ⌊φn⌋+1 — a
// branch-free search on the prefix-weight column.
func (d *Digest) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if d.n == 0 {
		panic(core.ErrEmpty)
	}
	target := core.TargetRank(phi, d.n) + 1
	s := d.snapshot()
	lo := core.SearchGe(s.prefix, target)
	if lo >= len(s.his) {
		lo = len(s.his) - 1
	}
	return s.his[lo]
}

// QuantileBatch implements core.QuantileBatcher: one snapshot answers
// the whole batch, each query a branch-free search on the prefix-weight
// column (identical to the per-φ rule: first prefix ≥ target).
func (d *Digest) QuantileBatch(phis []float64) []uint64 {
	if d.n == 0 {
		panic(core.ErrEmpty)
	}
	s := d.snapshot()
	out := make([]uint64, len(phis))
	for i, phi := range phis {
		core.CheckPhi(phi)
		target := core.TargetRank(phi, d.n) + 1
		lo := core.SearchGe(s.prefix, target)
		if lo >= len(s.his) {
			lo = len(s.his) - 1
		}
		out[i] = s.his[lo]
	}
	return out
}

// Rank implements core.Summary: nodes entirely below x count fully,
// nodes straddling x count half (midpoint convention).
func (d *Digest) Rank(x uint64) int64 {
	s := d.snapshot()
	var r int64
	for i, hi := range s.his {
		switch {
		case hi < x:
			r += s.ws[i]
		case s.los[i] < x:
			r += s.ws[i] / 2
		}
	}
	return r
}

// rankSteps flattens the midpoint rank rule into a step function of x:
// a node contributes w/2 once x exceeds its lo and the remaining
// w − w/2 once x exceeds its hi, so the rank at x is the prefix sum of
// all step deltas at thresholds ≤ x. Addition is commutative, so the
// values are identical to the per-x postorder accumulation. The hi+1
// steps come out of the post-order s already sorted; the lo+1 steps
// come from re-sorting by lo the nodes the snapshot left in d.nodeSc,
// and a two-way merge interleaves the two. Ties collapse into one
// threshold, so tie order is immaterial.
func (d *Digest) rankSteps(s *snapCols) ([]uint64, []int64) {
	lows := d.sortNodes(d.nodeSc, true)
	d.nodeSc = lows
	vals, ranks := d.rvals[:0], d.rranks[:0]
	var cum int64
	add := func(at uint64, delta int64) {
		cum += delta
		if k := len(vals); k > 0 && vals[k-1] == at {
			ranks[k-1] = cum
			return
		}
		vals = append(vals, at)
		ranks = append(ranks, cum)
	}
	li := 0
	addLows := func(upTo uint64) {
		for ; li < len(lows); li++ {
			lo, _ := d.span(lows[li].id)
			if lo+1 > upTo {
				return
			}
			add(lo+1, lows[li].w/2)
		}
	}
	for i, hi := range s.his {
		if hi == ^uint64(0) {
			// hi = max uint64 can never be exceeded by any x; the full
			// contribution step would overflow and never fires anyway.
			break
		}
		addLows(hi + 1)
		add(hi+1, s.ws[i]-s.ws[i]/2)
	}
	addLows(^uint64(0))
	d.rvals, d.rranks = vals, ranks
	return vals, ranks
}

// RankBatch implements core.QuantileBatcher: the step function is built
// once (O(s log s)), then every query is a branch-free search for the
// largest threshold ≤ x.
func (d *Digest) RankBatch(xs []uint64) []int64 {
	vals, ranks := d.rankSteps(d.snapshot())
	out := make([]int64, len(xs))
	for i, x := range xs {
		if lo := core.SearchGt(vals, x); lo > 0 {
			out[i] = ranks[lo-1]
		}
	}
	return out
}

// AppendQuerySnapshot implements core.Snapshotter: the quantile side is
// the postorder prefix-weight scan (first accumulated weight > ⌊φn⌋
// reports that node's hi), the rank side is the step function of
// rankSteps. Both are byte-identical to the live queries.
func (d *Digest) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	qs.Reset()
	qs.N = d.n
	if d.n == 0 {
		return
	}
	s := d.snapshot()
	qs.QVals = append(qs.QVals, s.his...)
	qs.QKeys = append(qs.QKeys, s.prefix...)
	vals, ranks := d.rankSteps(s)
	qs.RVals = append(qs.RVals, vals...)
	qs.RRanks = append(qs.RRanks, ranks...)
}

// Merge folds other into d. Both digests must share eps and universe;
// other is left unchanged. This is the mergeable-summary operation that
// distinguishes q-digest from the other deterministic algorithms.
// checkCompatible validates a merge partner: both digests must share
// the universe size and the compression factor k.
func (d *Digest) checkCompatible(other *Digest) {
	if other.bits != d.bits || other.k != d.k {
		panic("qdigest: merging digests with different parameters")
	}
}

func (d *Digest) Merge(other *Digest) {
	d.checkCompatible(other)
	d.drain()
	other.drain()
	for id, w := range other.nodes {
		d.nodes[id] += w
	}
	d.n += other.n
	d.compress()
	d.nextCmp = 2 * d.n
}

// SpaceBytes implements core.Summary. Each stored node is charged three
// words (id, counter, and one word of hash-table overhead), pending
// buffer slots one word each (by capacity, as they are pre-allocated),
// plus scalar state and the retained query scratch columns.
func (d *Digest) SpaceBytes() int64 {
	words := int64(len(d.nodes))*3 + int64(cap(d.buf)) + 6
	words += int64(cap(d.snap.los))*4 + int64(cap(d.nodeSc))*2 + int64(cap(d.spare))*2 +
		int64(cap(d.rvals)) + int64(cap(d.rranks))
	return words * core.WordBytes
}

// TotalWeight returns the sum of all node weights plus pending buffer
// entries; it must always equal Count(). Test hook for the conservation
// invariant.
func (d *Digest) TotalWeight() int64 {
	var sum int64
	for _, w := range d.nodes {
		sum += w
	}
	return sum + int64(len(d.buf))
}
