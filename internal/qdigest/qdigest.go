// Package qdigest implements the q-digest quantile summary of
// Shrivastava, Buragohain, Agrawal and Suri (SenSys 2004) in the fast,
// buffered form the paper benchmarks as FastQDigest.
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
	"sync"

	"streamquantiles/internal/core"
)

// Digest is a q-digest over the universe [0, 2^bits).
//
// Nodes are addressed heap-style: the root is 1, node i has children 2i
// and 2i+1, and leaf u+x represents the value x. The node set lives in
// two parallel columns sorted by heap id. That order is level-major:
// each tree level is one contiguous run, ordered by position, and the
// leaves form the tail. Leaves new since the last COMPRESS or query
// collect in a small sorted side run, folded into the columns once it
// passes √(2·bufCap·nodes), so a drain never shifts the whole leaf
// tail. COMPRESS is amortized by running each time the stream doubles.
type Digest struct {
	bits  int
	u     uint64 // universe size 2^bits
	k     int64  // compression factor
	eps   float64
	n     int64
	nodes cols // heap ids ascending, with their weights
	side  cols // leaves absent from nodes, ids ascending

	buf          []uint64 // pending leaf updates, bulk-applied
	nextCmp      int64    // run COMPRESS when n reaches this
	compressions int64    // number of COMPRESS invocations (observability)

	// Query-path scratch, struct-owned: queries drain the buffer and so
	// already demand the same exclusivity as updates (the Safe wrapper
	// enforces it). Rebuilt per query, allocation-free at steady state.
	// Merge borrows pre for its output: no snapshot outlives a mutation.
	post   cols // post-order: interval hi and prefix weight
	pre    cols // pre-order: interval lo and weight
	rvals  []uint64
	rranks []int64
}

// cols is a pair of parallel columns, uint64 keys and int64 weights.
type cols struct {
	keys []uint64
	ws   []int64
}

func (c *cols) push(key uint64, w int64) {
	c.keys = append(c.keys, key)
	c.ws = append(c.ws, w)
}

func (c *cols) reset() { c.keys, c.ws = c.keys[:0], c.ws[:0] }

// grow extends c by m unset entries.
func (c *cols) grow(m int) {
	n := len(c.keys)
	c.keys = slices.Grow(c.keys, m)[:n+m]
	c.ws = slices.Grow(c.ws, m)[:n+m]
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
	return d.stored()
}

// stored is the number of stored nodes: the side run holds no id of the
// columns, so the two lengths add up exactly.
func (d *Digest) stored() int { return len(d.nodes.keys) + len(d.side.keys) }

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
	if len(d.buf) > 0 {
		d.addLeaves()
	}
	if d.n >= d.nextCmp || int64(d.stored()) > 6*d.k {
		d.compress()
		d.nextCmp = 2 * d.n
	}
}

// addLeaves applies the pending buffer. It sorts the buffer, then gallops
// each distinct value's leaf through the leaf tail of the columns and
// through the side run; a stored leaf takes the value's count, and the
// values of new leaves are compacted to the front of the buffer and
// merged into the side run. The side run is folded into the columns once
// its length passes √(2·bufCap·nodes), which balances merging into it on
// every drain against shifting the leaf tail on every fold.
func (d *Digest) addLeaves() {
	xs := d.buf
	d.sortBuf(xs)
	ids, ws := d.nodes.keys, d.nodes.ws
	side := &d.side
	i, _ := slices.BinarySearch(ids, d.u)
	j, fresh := 0, 0
	for a := 0; a < len(xs); {
		x := xs[a]
		b := a + 1
		for b < len(xs) && xs[b] == x {
			b++
		}
		id, c := d.u+x, int64(b-a)
		a = b
		if i = gallop(ids, i, id); i < len(ids) && ids[i] == id {
			ws[i] += c
			continue
		}
		if j = gallop(side.keys, j, id); j < len(side.keys) && side.keys[j] == id {
			side.ws[j] += c
			continue
		}
		for ; c > 0; c-- {
			xs[fresh] = x // fresh ≤ the group's start: only consumed slots are written
			fresh++
		}
	}
	d.buf = xs[:0]
	if fresh == 0 {
		return
	}
	// Merge the new leaves into the side run from the back, in place.
	m := 1
	for t := 1; t < fresh; t++ {
		if xs[t] != xs[t-1] {
			m++
		}
	}
	s := len(side.keys)
	side.grow(m)
	k := s + m - 1
	for e := fresh; e > 0; k-- {
		b := e - 1
		for b > 0 && xs[b-1] == xs[e-1] {
			b--
		}
		id := d.u + xs[b]
		for ; s > 0 && side.keys[s-1] > id; s-- {
			side.keys[k], side.ws[k] = side.keys[s-1], side.ws[s-1]
			k--
		}
		side.keys[k], side.ws[k] = id, int64(e-b)
		e = b
	}
	if l := len(side.keys); l*l > 2*bufCap*len(ids) {
		d.settle()
	}
}

// gallop returns the first index i ≥ from with s[i] ≥ key, given that
// every entry before from is below key: an exponential probe forward,
// then a branch-free search inside the bracket it found.
func gallop(s []uint64, from int, key uint64) int {
	lo, hi := from, from
	for step := 1; hi < len(s) && s[hi] < key; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	return lo + core.SearchGe(s[lo:min(hi, len(s))], key)
}

// radixPool recycles the second buffer of sortBuf: scratch that lives
// for one drain, shared by every digest.
var radixPool = sync.Pool{New: func() any { return new([]uint64) }}

// sortBuf sorts pending values in place (core.RadixSort over the
// universe's bits).
func (d *Digest) sortBuf(xs []uint64) {
	tmp := radixPool.Get().(*[]uint64)
	defer radixPool.Put(tmp)
	*tmp = slices.Grow((*tmp)[:0], len(xs))[:len(xs)]
	core.RadixSort(xs, *tmp, d.bits)
}

// settle folds the side run into the leaf tail of the columns: a merge
// from the back, in place, that moves only the leaves above the smallest
// side id.
func (d *Digest) settle() {
	src := &d.side
	if len(src.keys) == 0 {
		return
	}
	dst := &d.nodes
	i := len(dst.keys)
	dst.grow(len(src.keys))
	k := len(dst.keys) - 1
	for j := len(src.keys) - 1; j >= 0; j-- {
		id := src.keys[j]
		for ; i > 0 && dst.keys[i-1] > id; i-- {
			dst.keys[k], dst.ws[k] = dst.keys[i-1], dst.ws[i-1]
			k--
		}
		dst.keys[k], dst.ws[k] = id, src.ws[j]
		k--
	}
	src.reset()
}

// foldPool recycles COMPRESS's fold-parent buffers: scratch that lives
// for one pass, shared by every digest.
var foldPool = sync.Pool{New: func() any { return new([2]cols) }}

// compress restores the digest property bottom-up: any stored non-root
// node whose triangle (self + sibling + parent) fits within ⌊n/k⌋ is
// folded into its parent. Folds cascade within a single pass: a parent
// created or grown by a fold joins its level's run and is reconsidered
// when the walk reaches that level.
//
// Each level is walked in descending id order, the stored run merged
// with the parents folded up from the level below; sibling pairs meet
// consecutively, and their parents descend, so one cursor into the
// parent level's run finds each parent's stored weight. A pair's fold
// decision reads only the pair and its parent, which no other pair
// touches, so it matches the decision of any other visiting order. The
// nodes kept are written right to left into the same columns, ending at
// the top: every fold removes at least one node of the merged run for
// the one parent it adds, so the write cursor never passes the read
// cursor, and it never reaches the parent level's run. The folded
// parents of a level wait in a pooled buffer.
func (d *Digest) compress() {
	d.compressions++
	capacity := d.n / d.k
	if capacity <= 0 {
		return
	}
	d.settle()
	ids, ws := d.nodes.keys, d.nodes.ws
	var start [maxBits + 2]int // start[lv] = first index of level lv's run
	for lv := 1; lv <= d.bits; lv++ {
		start[lv], _ = slices.BinarySearch(ids, uint64(1)<<lv)
	}
	start[d.bits+1] = len(ids)
	// Parents folded up from the level below, descending.
	folds := foldPool.Get().(*[2]cols)
	defer foldPool.Put(folds)
	up, next := &folds[0], &folds[1]
	up.reset()
	w := len(ids)
	for lv := d.bits; lv >= 0; lv-- {
		upIds, upWs := up.keys, up.ws
		a, lo, p := start[lv+1]-1, start[lv], 0
		groups := a - lo + 1 + len(upIds) // bounds the folds
		nIds, nWs := slices.Grow(next.keys[:0], groups)[:groups], slices.Grow(next.ws[:0], groups)[:groups]
		nf := 0
		par, parLo := lo-1, start[max(lv-1, 0)]
	walk:
		for {
			// Take the largest id left; a folded parent's total already
			// includes the weight of the stored node it replaces.
			var id uint64
			var c int64
			switch {
			case p < len(upIds) && (a < lo || upIds[p] >= ids[a]):
				id, c = upIds[p], upWs[p]
				if p++; a >= lo && ids[a] == id {
					a--
				}
			case a >= lo:
				id, c = ids[a], ws[a]
				a--
			default:
				break walk
			}
			// A right child meets its left sibling next, if stored.
			var sc int64
			pair := false
			if id&1 == 1 {
				switch sib := id - 1; {
				case p < len(upIds) && upIds[p] == sib:
					sc, pair = upWs[p], true
					if p++; a >= lo && ids[a] == sib {
						a--
					}
				case a >= lo && ids[a] == sib:
					sc, pair = ws[a], true
					a--
				}
			}
			if lv > 0 {
				pid, total := id>>1, c+sc
				for par >= parLo && ids[par] > pid {
					par--
				}
				if par >= parLo && ids[par] == pid {
					total += ws[par]
				}
				if total <= capacity {
					nIds[nf], nWs[nf] = pid, total
					nf++
					continue
				}
			}
			w--
			ids[w], ws[w] = id, c
			if pair {
				w--
				ids[w], ws[w] = id-1, sc
			}
		}
		next.keys, next.ws = nIds[:nf], nWs[:nf]
		up, next = next, up
	}
	n := copy(ids, ids[w:])
	copy(ws, ws[w:])
	d.nodes.keys, d.nodes.ws = ids[:n], ws[:n]
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

// Flush drains the pending update buffer into the node columns. Queries
// do this implicitly; Flush lets callers — notably the Safe wrappers,
// which use it to detect query-time mutation — force it explicitly.
func (d *Digest) Flush() { d.drain() }

// levelRun is one tree level's stretch of the node columns.
type levelRun struct {
	lv, s, e int
}

// snapshot rebuilds the query columns from the level runs without
// sorting. Within a level, id order is interval order, so each level run
// is already sorted by lo and by hi, and two stable merges of the level
// runs (core.MergeSegments) give both traversals:
//   - d.pre, the pre-order (lo ascending, wider first): the runs listed
//     root level first, so at equal lo the ancestor comes first;
//   - d.post, the post-order (hi ascending, narrower first): the runs
//     listed leaf level first, so at equal hi the descendant comes
//     first. Its weights become the running prefix weight, which turns
//     quantile extraction into a single search on a sorted column.
//
// All scratch but the merge's pooled ping-pong columns is struct-owned:
// queries drain the pending buffer (a mutation), so the digest already
// requires external synchronization between queries.
func (d *Digest) snapshot() {
	d.drain()
	d.settle()
	ids, b := d.nodes.keys, d.bits
	var runs [maxBits + 1]levelRun
	var sizes, leafFirst [maxBits + 1]int
	r, s := 0, 0
	for lv := 0; lv <= b && s < len(ids); lv++ {
		e := len(ids)
		if lv < b {
			e = s + core.SearchGe(ids[s:], uint64(2)<<lv)
		}
		if e > s {
			runs[r], sizes[r] = levelRun{lv, s, e}, e-s
			r++
		}
		s = e
	}
	for i := range r {
		leafFirst[i] = sizes[r-1-i]
	}
	n := len(ids)
	los, lws := slices.Grow(d.pre.keys[:0], n)[:n], slices.Grow(d.pre.ws[:0], n)[:n]
	his, prefix := slices.Grow(d.post.keys[:0], n)[:n], slices.Grow(d.post.ws[:0], n)[:n]
	core.MergeSegments(los, lws, sizes[:r], func(i int, v []uint64, w []int64) {
		d.stageLevel(runs[i], false, v, w)
	})
	core.MergeSegments(his, prefix, leafFirst[:r], func(i int, v []uint64, w []int64) {
		d.stageLevel(runs[r-1-i], true, v, w)
	})
	var cum int64
	for i, w := range prefix {
		cum += w
		prefix[i] = cum
	}
	d.pre, d.post = cols{los, lws}, cols{his, prefix}
}

// stageLevel writes the lo (or, with hi set, the hi) of every node of
// run into v, and their weights into w.
func (d *Digest) stageLevel(run levelRun, hi bool, v []uint64, w []int64) {
	first, shift := uint64(1)<<run.lv, d.bits-run.lv
	var end uint64
	if hi {
		end = uint64(1)<<shift - 1
	}
	for k, id := range d.nodes.keys[run.s:run.e] {
		v[k] = (id-first)<<shift | end
	}
	copy(w, d.nodes.ws[run.s:run.e])
}

// Quantile implements core.Summary: report the right endpoint of the
// post-order node where the accumulated weight reaches ⌊φn⌋+1 — a
// branch-free search on the prefix-weight column.
func (d *Digest) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if d.n == 0 {
		panic(core.ErrEmpty)
	}
	d.snapshot()
	return d.quantileAt(core.TargetRank(phi, d.n) + 1)
}

// quantileAt returns the hi of the first post-order node whose prefix
// weight reaches target.
func (d *Digest) quantileAt(target int64) uint64 {
	his := d.post.keys
	i := core.SearchGe(d.post.ws, target)
	if i >= len(his) {
		i = len(his) - 1
	}
	return his[i]
}

// QuantileBatch implements core.QuantileBatcher: one snapshot answers
// the whole batch, each query a branch-free search on the prefix-weight
// column (identical to the per-φ rule: first prefix ≥ target).
func (d *Digest) QuantileBatch(phis []float64) []uint64 {
	if d.n == 0 {
		panic(core.ErrEmpty)
	}
	d.snapshot()
	out := make([]uint64, len(phis))
	for i, phi := range phis {
		core.CheckPhi(phi)
		out[i] = d.quantileAt(core.TargetRank(phi, d.n) + 1)
	}
	return out
}

// Rank implements core.Summary: nodes entirely below x count fully,
// nodes straddling x count half (midpoint convention). The sum does not
// depend on the visiting order, so it walks the stored nodes as they lie.
func (d *Digest) Rank(x uint64) int64 {
	d.drain()
	var r int64
	for _, c := range [2]*cols{&d.nodes, &d.side} {
		for i, id := range c.keys {
			switch lo, hi := d.span(id); {
			case hi < x:
				r += c.ws[i]
			case lo < x:
				r += c.ws[i] / 2
			}
		}
	}
	return r
}

// rankSteps flattens the midpoint rank rule into a step function of x:
// a node contributes w/2 once x exceeds its lo and the remaining
// w − w/2 once x exceeds its hi, so the rank at x is the prefix sum of
// all step deltas at thresholds ≤ x. Addition is commutative, so the
// values are identical to the per-x postorder accumulation. The lo+1
// steps come from the snapshot's pre-order, the hi+1 steps from its
// post-order (a node's weight is the difference of adjacent prefix
// weights), both already sorted, and a two-way merge interleaves them.
// Ties collapse into one threshold, so tie order is immaterial; bits ≤
// 62 keeps hi+1 from overflowing.
//
// The merge loop has no data-dependent branch: the comparison selects
// the step by conditional moves, and a step at the previous threshold
// overwrites that entry instead of appending (thresholds are ≥ 1, so
// the zero start never matches). The pre-order runs out first, since
// every lo is at most the largest hi, so a plain loop finishes the
// post-order's tail.
func (d *Digest) rankSteps() ([]uint64, []int64) {
	los, lws := d.pre.keys, d.pre.ws
	his, prefix := d.post.keys, d.post.ws
	m := len(los) + len(his)
	vals, ranks := slices.Grow(d.rvals[:0], m)[:m], slices.Grow(d.rranks[:0], m)[:m]
	lws = lws[:len(los)]
	k, li, hi := 0, 0, 0
	var cum, prev int64
	var last uint64
	for li < len(los) {
		l, half, h, p := los[li], lws[li]/2, his[hi], prefix[hi]
		w := p - prev
		at, delta, next, fromLo := h+1, w-w/2, p, 0
		if l <= h {
			at, delta, next, fromLo = l+1, half, prev, 1
		}
		prev = next
		li += fromLo
		hi += 1 - fromLo
		cum += delta
		if at == last {
			k--
		}
		vals[k], ranks[k] = at, cum
		k++
		last = at
	}
	for ; hi < len(his); hi++ {
		at, w := his[hi]+1, prefix[hi]-prev
		prev = prefix[hi]
		cum += w - w/2
		if at == last {
			k--
		}
		vals[k], ranks[k] = at, cum
		k++
		last = at
	}
	d.rvals, d.rranks = vals[:k], ranks[:k]
	return d.rvals, d.rranks
}

// RankBatch implements core.QuantileBatcher: the step function is built
// once (O(s log levels)), then every query is a branch-free search for
// the largest threshold ≤ x.
func (d *Digest) RankBatch(xs []uint64) []int64 {
	d.snapshot()
	vals, ranks := d.rankSteps()
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
	if d.n == 0 {
		return
	}
	d.snapshot()
	vals, ranks := d.rankSteps()
	qs.Grow(len(d.post.keys), len(vals))
	qs.N = d.n
	qs.QVals = append(qs.QVals, d.post.keys...)
	qs.QKeys = append(qs.QKeys, d.post.ws...)
	qs.RVals = append(qs.RVals, vals...)
	qs.RRanks = append(qs.RRanks, ranks...)
}

// nodeIter lists the node set in ascending id order without changing the
// digest: the columns, with the side run merged into their leaf tail.
type nodeIter struct {
	d    *Digest
	i, j int
}

func (it *nodeIter) next() (id uint64, w int64, ok bool) {
	a, b := &it.d.nodes, &it.d.side
	switch {
	case it.i < len(a.keys) && (it.j == len(b.keys) || a.keys[it.i] < b.keys[it.j]):
		id, w = a.keys[it.i], a.ws[it.i]
		it.i++
	case it.j < len(b.keys):
		id, w = b.keys[it.j], b.ws[it.j]
		it.j++
	default:
		return 0, 0, false
	}
	return id, w, true
}

// checkCompatible validates a merge partner: both digests must share
// the universe size and the compression factor k.
func (d *Digest) checkCompatible(other *Digest) {
	if other.bits != d.bits || other.k != d.k {
		panic("qdigest: merging digests with different parameters")
	}
}

// Merge folds other into d. Both digests must share eps and universe;
// other is left unchanged. This is the mergeable-summary operation that
// distinguishes q-digest from the other deterministic algorithms: a
// merge of the two sorted node sets, adding the weights of shared ids,
// then a COMPRESS.
func (d *Digest) Merge(other *Digest) {
	d.checkCompatible(other)
	d.drain()
	other.drain()
	d.settle()
	out, a := &d.pre, d.nodes
	out.reset()
	it := nodeIter{d: other}
	i := 0
	for id, w, ok := it.next(); ok; id, w, ok = it.next() {
		for ; i < len(a.keys) && a.keys[i] < id; i++ {
			out.push(a.keys[i], a.ws[i])
		}
		if i < len(a.keys) && a.keys[i] == id {
			w += a.ws[i]
			i++
		}
		out.push(id, w)
	}
	for ; i < len(a.keys); i++ {
		out.push(a.keys[i], a.ws[i])
	}
	d.nodes, d.pre = *out, cols{a.keys[:0], a.ws[:0]}
	d.n += other.n
	d.compress()
	d.nextCmp = 2 * d.n
}

// SpaceBytes implements core.Summary. Each stored node is charged two
// words (id and counter), pending buffer slots one word each (by
// capacity, as they are pre-allocated), plus scalar state and the
// retained query scratch columns.
func (d *Digest) SpaceBytes() int64 {
	words := int64(d.stored())*2 + int64(cap(d.buf)) + 6
	words += int64(cap(d.post.keys)+cap(d.post.ws)+cap(d.pre.keys)+cap(d.pre.ws)) +
		int64(cap(d.rvals)) + int64(cap(d.rranks))
	return words * core.WordBytes
}

// TotalWeight returns the sum of all node weights plus pending buffer
// entries; it must always equal Count(). Test hook for the conservation
// invariant.
func (d *Digest) TotalWeight() int64 {
	sum := int64(len(d.buf))
	for _, c := range [2]*cols{&d.nodes, &d.side} {
		for _, w := range c.ws {
			sum += w
		}
	}
	return sum
}
