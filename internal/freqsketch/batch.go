// Batched sketch updates. Add(x, δ) walks d rows per element, so a
// stream of per-item calls interleaves d unrelated hash evaluations and
// d scattered counter touches across rows that together far exceed the
// cache. AddBatch flips the loop nest to row-major over fixed-size
// chunks and runs a fused kernel per row pair: the input reduction into
// GF(2^61 − 1) happens once per chunk (shared by every row), the paired
// rows' Horner chains interleave (two independent 64×64 multiply chains
// in flight per element), and the bucket reduction plus counter scatter
// happen in the same loop — no intermediate hash-value buffer is
// written or re-read. Counter values are byte-identical to per-item
// Add: the kernels evaluate the same polynomials over the same field
// (see xhash.LazyMulFold for the lazy-reduction bound) and the sketches
// are linear. The chunk buffer lives on the stack — the sketches hold
// no batch-sized scratch, so SpaceBytes stays exactly the paper's
// accounting.
package freqsketch

import "streamquantiles/internal/xhash"

// batchChunk is the number of elements reduced per chunk pass. One
// 4096-word buffer is 32 KiB of stack — large enough to amortize the
// per-row coefficient setup, small enough to stay cache-resident across
// the d row passes that reuse it.
const batchChunk = 4096

// signedDelta applies the Count-Sketch sign convention branch-free:
// the low bit of the hash value selects ±delta via a two's-complement
// mask, the same value as (1 − 2·(v&1))·delta.
func signedDelta(v uint64, delta int64) int64 {
	m := -int64(v & 1)
	return (delta ^ m) - m
}

// reduceVals fills vs with the canonical field representatives of xs,
// hoisting the per-element mod-p reduction out of the per-row kernels
// (every row of every kernel evaluates at the same points).
func reduceVals(vs, xs []uint64) {
	for i, x := range xs {
		vs[i] = xhash.Mod61(x)
	}
}

// coefs4 splits a degree-4 coefficient slice into registers; ok is
// false for any other degree (the kernels then fall back to the generic
// slice path).
func coefs4(p *xhash.Poly) (c0, c1, c2, c3 uint64, ok bool) {
	c := p.Coefs()
	if len(c) != 4 {
		return 0, 0, 0, 0, false
	}
	return c[0], c[1], c[2], c[3], true
}

// coefs2 is coefs4's degree-2 (pairwise) counterpart.
func coefs2(p *xhash.Poly) (c0, c1 uint64, ok bool) {
	c := p.Coefs()
	if len(c) != 2 {
		return 0, 0, false
	}
	return c[0], c[1], true
}

// addPairBuckets scatters delta into two rows through two degree-2
// bucket hashes of shared width in one pass over the pre-reduced vs,
// two elements per iteration (the pairwise chains are one multiply
// deep, so four chains in flight keep the multiplier busy). Returns
// false (touching nothing) if either polynomial has a different degree.
func addPairBuckets(p, q *xhash.Poly, row0, row1 []int64, w, rec uint64, vs []uint64, delta int64) bool {
	a0, a1, ok := coefs2(p)
	if !ok {
		return false
	}
	b0, b1, ok := coefs2(q)
	if !ok {
		return false
	}
	i := 0
	for ; i+1 < len(vs); i += 2 {
		v0, v1 := vs[i], vs[i+1]
		h00 := xhash.Mod61(xhash.LazyMulFold(a1, v0) + a0)
		h10 := xhash.Mod61(xhash.LazyMulFold(b1, v0) + b0)
		h01 := xhash.Mod61(xhash.LazyMulFold(a1, v1) + a0)
		h11 := xhash.Mod61(xhash.LazyMulFold(b1, v1) + b0)
		row0[xhash.ReduceMod(h00, w, rec)] += delta
		row1[xhash.ReduceMod(h10, w, rec)] += delta
		row0[xhash.ReduceMod(h01, w, rec)] += delta
		row1[xhash.ReduceMod(h11, w, rec)] += delta
	}
	for ; i < len(vs); i++ {
		v := vs[i]
		h0 := xhash.Mod61(xhash.LazyMulFold(a1, v) + a0)
		h1 := xhash.Mod61(xhash.LazyMulFold(b1, v) + b0)
		row0[xhash.ReduceMod(h0, w, rec)] += delta
		row1[xhash.ReduceMod(h1, w, rec)] += delta
	}
	return true
}

// addOneBucket is addPairBuckets' odd-row tail: one row, four elements
// per iteration.
func addOneBucket(p *xhash.Poly, row []int64, w, rec uint64, vs []uint64, delta int64) bool {
	c0, c1, ok := coefs2(p)
	if !ok {
		return false
	}
	i := 0
	for ; i+3 < len(vs); i += 4 {
		h0 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i]) + c0)
		h1 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i+1]) + c0)
		h2 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i+2]) + c0)
		h3 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i+3]) + c0)
		row[xhash.ReduceMod(h0, w, rec)] += delta
		row[xhash.ReduceMod(h1, w, rec)] += delta
		row[xhash.ReduceMod(h2, w, rec)] += delta
		row[xhash.ReduceMod(h3, w, rec)] += delta
	}
	for ; i < len(vs); i++ {
		h := xhash.Mod61(xhash.LazyMulFold(c1, vs[i]) + c0)
		row[xhash.ReduceMod(h, w, rec)] += delta
	}
	return true
}

// addPairSigned is the Count-Sketch pair kernel: the hash value's low
// bit signs delta, the rest selects the bucket.
func addPairSigned(p, q *xhash.Poly, row0, row1 []int64, w, rec uint64, vs []uint64, delta int64) bool {
	a0, a1, a2, a3, ok := coefs4(p)
	if !ok {
		return false
	}
	b0, b1, b2, b3, ok := coefs4(q)
	if !ok {
		return false
	}
	i := 0
	for ; i+1 < len(vs); i += 2 {
		v0, v1 := vs[i], vs[i+1]
		s0 := xhash.LazyMulFold(a3, v0) + a2
		t0 := xhash.LazyMulFold(b3, v0) + b2
		s1 := xhash.LazyMulFold(a3, v1) + a2
		t1 := xhash.LazyMulFold(b3, v1) + b2
		s0 = xhash.LazyMulFold(s0, v0) + a1
		t0 = xhash.LazyMulFold(t0, v0) + b1
		s1 = xhash.LazyMulFold(s1, v1) + a1
		t1 = xhash.LazyMulFold(t1, v1) + b1
		h00 := xhash.Mod61(xhash.LazyMulFold(s0, v0) + a0)
		h10 := xhash.Mod61(xhash.LazyMulFold(t0, v0) + b0)
		h01 := xhash.Mod61(xhash.LazyMulFold(s1, v1) + a0)
		h11 := xhash.Mod61(xhash.LazyMulFold(t1, v1) + b0)
		row0[xhash.ReduceMod(h00>>1, w, rec)] += signedDelta(h00, delta)
		row1[xhash.ReduceMod(h10>>1, w, rec)] += signedDelta(h10, delta)
		row0[xhash.ReduceMod(h01>>1, w, rec)] += signedDelta(h01, delta)
		row1[xhash.ReduceMod(h11>>1, w, rec)] += signedDelta(h11, delta)
	}
	for ; i < len(vs); i++ {
		v := vs[i]
		s := xhash.LazyMulFold(a3, v) + a2
		t := xhash.LazyMulFold(b3, v) + b2
		s = xhash.LazyMulFold(s, v) + a1
		t = xhash.LazyMulFold(t, v) + b1
		h0 := xhash.Mod61(xhash.LazyMulFold(s, v) + a0)
		h1 := xhash.Mod61(xhash.LazyMulFold(t, v) + b0)
		row0[xhash.ReduceMod(h0>>1, w, rec)] += signedDelta(h0, delta)
		row1[xhash.ReduceMod(h1>>1, w, rec)] += signedDelta(h1, delta)
	}
	return true
}

// addOneSigned is addPairSigned's odd-row tail, two elements per
// iteration.
func addOneSigned(p *xhash.Poly, row []int64, w, rec uint64, vs []uint64, delta int64) bool {
	c0, c1, c2, c3, ok := coefs4(p)
	if !ok {
		return false
	}
	i := 0
	for ; i+1 < len(vs); i += 2 {
		v0, v1 := vs[i], vs[i+1]
		s := xhash.LazyMulFold(c3, v0) + c2
		t := xhash.LazyMulFold(c3, v1) + c2
		s = xhash.LazyMulFold(s, v0) + c1
		t = xhash.LazyMulFold(t, v1) + c1
		h0 := xhash.Mod61(xhash.LazyMulFold(s, v0) + c0)
		h1 := xhash.Mod61(xhash.LazyMulFold(t, v1) + c0)
		row[xhash.ReduceMod(h0>>1, w, rec)] += signedDelta(h0, delta)
		row[xhash.ReduceMod(h1>>1, w, rec)] += signedDelta(h1, delta)
	}
	for ; i < len(vs); i++ {
		v := vs[i]
		s := xhash.LazyMulFold(c3, v) + c2
		s = xhash.LazyMulFold(s, v) + c1
		h := xhash.Mod61(xhash.LazyMulFold(s, v) + c0)
		row[xhash.ReduceMod(h>>1, w, rec)] += signedDelta(h, delta)
	}
	return true
}

// bucketRows runs the bucket-hash scatter for all d rows of a
// CountMin-shaped sketch (also RSS) over one pre-reduced chunk, taking
// rows two at a time; hashes[i] must bucket into [0, len(rows[i])).
func bucketRows(hashes []*xhash.Bucket, rows [][]int64, vs []uint64, delta int64) {
	d := len(hashes)
	w := uint64(hashes[0].Width())
	rec := xhash.Reciprocal(w)
	i := 0
	for ; i+1 < d; i += 2 {
		if !addPairBuckets(hashes[i].HashPoly(), hashes[i+1].HashPoly(), rows[i], rows[i+1], w, rec, vs, delta) {
			hashSliceFallback(hashes[i], rows[i], vs, delta)
			hashSliceFallback(hashes[i+1], rows[i+1], vs, delta)
		}
	}
	if i < d {
		if !addOneBucket(hashes[i].HashPoly(), rows[i], w, rec, vs, delta) {
			hashSliceFallback(hashes[i], rows[i], vs, delta)
		}
	}
}

// signedRows is bucketRows' Count-Sketch counterpart.
func signedRows(polys []*xhash.Poly, rows [][]int64, w, rec uint64, vs []uint64, delta int64) {
	d := len(polys)
	i := 0
	for ; i+1 < d; i += 2 {
		if !addPairSigned(polys[i], polys[i+1], rows[i], rows[i+1], w, rec, vs, delta) {
			signedFallback(polys[i], rows[i], w, rec, vs, delta)
			signedFallback(polys[i+1], rows[i+1], w, rec, vs, delta)
		}
	}
	if i < d {
		if !addOneSigned(polys[i], rows[i], w, rec, vs, delta) {
			signedFallback(polys[i], rows[i], w, rec, vs, delta)
		}
	}
}

// hashSliceFallback covers non-degree-2 bucket polynomials (not built
// by the sketch constructors, but kept for robustness): per-element
// Hash on the already-reduced values — mod61 is idempotent, so the
// buckets match the fused kernels'.
func hashSliceFallback(h *xhash.Bucket, row []int64, vs []uint64, delta int64) {
	for _, v := range vs {
		row[h.Hash(v)] += delta
	}
}

// signedFallback covers non-degree-4 Count-Sketch polynomials.
func signedFallback(p *xhash.Poly, row []int64, w, rec uint64, vs []uint64, delta int64) {
	for _, v := range vs {
		h := p.Eval(v)
		row[xhash.ReduceMod(h>>1, w, rec)] += signedDelta(h, delta)
	}
}

// bucketBatch is AddBatch for the bucket-hashed sketches (CountMin and
// RSS): reduce each chunk once, then scatter it into every row.
func bucketBatch(hashes []*xhash.Bucket, rows [][]int64, xs []uint64, delta int64) {
	var vbuf [batchChunk]uint64
	for len(xs) > 0 {
		m := min(len(xs), batchChunk)
		reduceVals(vbuf[:m], xs[:m])
		bucketRows(hashes, rows, vbuf[:m], delta)
		xs = xs[m:]
	}
}

// AddBatch implements Sketch.
func (cm *CountMin) AddBatch(xs []uint64, delta int64) {
	bucketBatch(cm.hashes, cm.rows, xs, delta)
}

// AddBatch implements Sketch.
func (cs *CountSketch) AddBatch(xs []uint64, delta int64) {
	var vbuf [batchChunk]uint64
	w := uint64(cs.w)
	rec := xhash.Reciprocal(w)
	for len(xs) > 0 {
		m := min(len(xs), batchChunk)
		reduceVals(vbuf[:m], xs[:m])
		signedRows(cs.polys, cs.rows, w, rec, vbuf[:m], delta)
		xs = xs[m:]
	}
}

// AddBatch implements Sketch.
func (r *RSS) AddBatch(xs []uint64, delta int64) {
	bucketBatch(r.hashes, r.rows, xs, delta)
}
