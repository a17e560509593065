// Weighted batch updates. AddWeighted(xs, ws) adds ws[i] to xs[i]: the
// dyadic sketches coalesce a skewed chunk into (interval, weight) runs
// and hand each level one run per distinct interval. The kernels are
// batch.go's constant-delta kernels with a per-element weight load in
// place of the shared delta. The sketches are linear and counters are
// exact int64 sums, so adding w once leaves the same counters as w unit
// updates. Both families are kept: the extra load and register costs
// the all-distinct path measurably, and that path never has weights.
package freqsketch

import "streamquantiles/internal/xhash"

// addPairBucketsW is addPairBuckets with one weight per element.
func addPairBucketsW(p, q *xhash.Poly, row0, row1 []int64, w, rec uint64, vs []uint64, ws []int64) bool {
	a0, a1, ok := coefs2(p)
	if !ok {
		return false
	}
	b0, b1, ok := coefs2(q)
	if !ok {
		return false
	}
	ws = ws[:len(vs)]
	i := 0
	for ; i+1 < len(vs); i += 2 {
		v0, v1 := vs[i], vs[i+1]
		d0, d1 := ws[i], ws[i+1]
		h00 := xhash.Mod61(xhash.LazyMulFold(a1, v0) + a0)
		h10 := xhash.Mod61(xhash.LazyMulFold(b1, v0) + b0)
		h01 := xhash.Mod61(xhash.LazyMulFold(a1, v1) + a0)
		h11 := xhash.Mod61(xhash.LazyMulFold(b1, v1) + b0)
		row0[xhash.ReduceMod(h00, w, rec)] += d0
		row1[xhash.ReduceMod(h10, w, rec)] += d0
		row0[xhash.ReduceMod(h01, w, rec)] += d1
		row1[xhash.ReduceMod(h11, w, rec)] += d1
	}
	for ; i < len(vs); i++ {
		v, d := vs[i], ws[i]
		h0 := xhash.Mod61(xhash.LazyMulFold(a1, v) + a0)
		h1 := xhash.Mod61(xhash.LazyMulFold(b1, v) + b0)
		row0[xhash.ReduceMod(h0, w, rec)] += d
		row1[xhash.ReduceMod(h1, w, rec)] += d
	}
	return true
}

// addOneBucketW is addOneBucket with one weight per element.
func addOneBucketW(p *xhash.Poly, row []int64, w, rec uint64, vs []uint64, ws []int64) bool {
	c0, c1, ok := coefs2(p)
	if !ok {
		return false
	}
	ws = ws[:len(vs)]
	i := 0
	for ; i+3 < len(vs); i += 4 {
		h0 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i]) + c0)
		h1 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i+1]) + c0)
		h2 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i+2]) + c0)
		h3 := xhash.Mod61(xhash.LazyMulFold(c1, vs[i+3]) + c0)
		row[xhash.ReduceMod(h0, w, rec)] += ws[i]
		row[xhash.ReduceMod(h1, w, rec)] += ws[i+1]
		row[xhash.ReduceMod(h2, w, rec)] += ws[i+2]
		row[xhash.ReduceMod(h3, w, rec)] += ws[i+3]
	}
	for ; i < len(vs); i++ {
		h := xhash.Mod61(xhash.LazyMulFold(c1, vs[i]) + c0)
		row[xhash.ReduceMod(h, w, rec)] += ws[i]
	}
	return true
}

// addPairSignedW is addPairSigned with one weight per element.
func addPairSignedW(p, q *xhash.Poly, row0, row1 []int64, w, rec uint64, vs []uint64, ws []int64) bool {
	a0, a1, a2, a3, ok := coefs4(p)
	if !ok {
		return false
	}
	b0, b1, b2, b3, ok := coefs4(q)
	if !ok {
		return false
	}
	ws = ws[:len(vs)]
	i := 0
	for ; i+1 < len(vs); i += 2 {
		v0, v1 := vs[i], vs[i+1]
		d0, d1 := ws[i], ws[i+1]
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
		row0[xhash.ReduceMod(h00>>1, w, rec)] += signedDelta(h00, d0)
		row1[xhash.ReduceMod(h10>>1, w, rec)] += signedDelta(h10, d0)
		row0[xhash.ReduceMod(h01>>1, w, rec)] += signedDelta(h01, d1)
		row1[xhash.ReduceMod(h11>>1, w, rec)] += signedDelta(h11, d1)
	}
	for ; i < len(vs); i++ {
		v, d := vs[i], ws[i]
		s := xhash.LazyMulFold(a3, v) + a2
		t := xhash.LazyMulFold(b3, v) + b2
		s = xhash.LazyMulFold(s, v) + a1
		t = xhash.LazyMulFold(t, v) + b1
		h0 := xhash.Mod61(xhash.LazyMulFold(s, v) + a0)
		h1 := xhash.Mod61(xhash.LazyMulFold(t, v) + b0)
		row0[xhash.ReduceMod(h0>>1, w, rec)] += signedDelta(h0, d)
		row1[xhash.ReduceMod(h1>>1, w, rec)] += signedDelta(h1, d)
	}
	return true
}

// addOneSignedW is addOneSigned with one weight per element.
func addOneSignedW(p *xhash.Poly, row []int64, w, rec uint64, vs []uint64, ws []int64) bool {
	c0, c1, c2, c3, ok := coefs4(p)
	if !ok {
		return false
	}
	ws = ws[:len(vs)]
	i := 0
	for ; i+1 < len(vs); i += 2 {
		v0, v1 := vs[i], vs[i+1]
		s := xhash.LazyMulFold(c3, v0) + c2
		t := xhash.LazyMulFold(c3, v1) + c2
		s = xhash.LazyMulFold(s, v0) + c1
		t = xhash.LazyMulFold(t, v1) + c1
		h0 := xhash.Mod61(xhash.LazyMulFold(s, v0) + c0)
		h1 := xhash.Mod61(xhash.LazyMulFold(t, v1) + c0)
		row[xhash.ReduceMod(h0>>1, w, rec)] += signedDelta(h0, ws[i])
		row[xhash.ReduceMod(h1>>1, w, rec)] += signedDelta(h1, ws[i+1])
	}
	for ; i < len(vs); i++ {
		v := vs[i]
		s := xhash.LazyMulFold(c3, v) + c2
		s = xhash.LazyMulFold(s, v) + c1
		h := xhash.Mod61(xhash.LazyMulFold(s, v) + c0)
		row[xhash.ReduceMod(h>>1, w, rec)] += signedDelta(h, ws[i])
	}
	return true
}

// bucketRowsW is bucketRows with one weight per element.
func bucketRowsW(hashes []*xhash.Bucket, rows [][]int64, vs []uint64, ws []int64) {
	d := len(hashes)
	w := uint64(hashes[0].Width())
	rec := xhash.Reciprocal(w)
	i := 0
	for ; i+1 < d; i += 2 {
		if !addPairBucketsW(hashes[i].HashPoly(), hashes[i+1].HashPoly(), rows[i], rows[i+1], w, rec, vs, ws) {
			hashSliceFallbackW(hashes[i], rows[i], vs, ws)
			hashSliceFallbackW(hashes[i+1], rows[i+1], vs, ws)
		}
	}
	if i < d {
		if !addOneBucketW(hashes[i].HashPoly(), rows[i], w, rec, vs, ws) {
			hashSliceFallbackW(hashes[i], rows[i], vs, ws)
		}
	}
}

// signedRowsW is signedRows with one weight per element.
func signedRowsW(polys []*xhash.Poly, rows [][]int64, w, rec uint64, vs []uint64, ws []int64) {
	d := len(polys)
	i := 0
	for ; i+1 < d; i += 2 {
		if !addPairSignedW(polys[i], polys[i+1], rows[i], rows[i+1], w, rec, vs, ws) {
			signedFallbackW(polys[i], rows[i], w, rec, vs, ws)
			signedFallbackW(polys[i+1], rows[i+1], w, rec, vs, ws)
		}
	}
	if i < d {
		if !addOneSignedW(polys[i], rows[i], w, rec, vs, ws) {
			signedFallbackW(polys[i], rows[i], w, rec, vs, ws)
		}
	}
}

// hashSliceFallbackW is hashSliceFallback with one weight per element.
func hashSliceFallbackW(h *xhash.Bucket, row []int64, vs []uint64, ws []int64) {
	for i, v := range vs {
		row[h.Hash(v)] += ws[i]
	}
}

// signedFallbackW is signedFallback with one weight per element.
func signedFallbackW(p *xhash.Poly, row []int64, w, rec uint64, vs []uint64, ws []int64) {
	for i, v := range vs {
		h := p.Eval(v)
		row[xhash.ReduceMod(h>>1, w, rec)] += signedDelta(h, ws[i])
	}
}

// bucketWeighted is bucketBatch with one weight per element.
func bucketWeighted(hashes []*xhash.Bucket, rows [][]int64, xs []uint64, ws []int64) {
	var vbuf [batchChunk]uint64
	ws = ws[:len(xs)]
	for len(xs) > 0 {
		m := min(len(xs), batchChunk)
		reduceVals(vbuf[:m], xs[:m])
		bucketRowsW(hashes, rows, vbuf[:m], ws[:m])
		xs, ws = xs[m:], ws[m:]
	}
}

// AddWeighted implements Sketch.
func (cm *CountMin) AddWeighted(xs []uint64, ws []int64) {
	bucketWeighted(cm.hashes, cm.rows, xs, ws)
}

// AddWeighted implements Sketch.
func (cs *CountSketch) AddWeighted(xs []uint64, ws []int64) {
	var vbuf [batchChunk]uint64
	w := uint64(cs.w)
	rec := xhash.Reciprocal(w)
	ws = ws[:len(xs)]
	for len(xs) > 0 {
		m := min(len(xs), batchChunk)
		reduceVals(vbuf[:m], xs[:m])
		signedRowsW(cs.polys, cs.rows, w, rec, vbuf[:m], ws[:m])
		xs, ws = xs[m:], ws[m:]
	}
}

// AddWeighted implements Sketch.
func (r *RSS) AddWeighted(xs []uint64, ws []int64) {
	bucketWeighted(r.hashes, r.rows, xs, ws)
}
