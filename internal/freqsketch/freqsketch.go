// Package freqsketch implements the turnstile frequency-estimation
// sketches that instantiate the dyadic quantile algorithms of the paper's
// §3: the Count-Min sketch (Cormode & Muthukrishnan 2005), the
// Count-Sketch (Charikar, Chen & Farach-Colton 2002), and — for
// completeness — the random subset-sum sketch (Gilbert et al. 2002),
// which the paper implements but excludes from the headline plots because
// it is dominated by the other two.
//
// All sketches are linear: they support Add(x, ±1) in any order and their
// estimates depend only on the current frequency vector, which is why the
// dyadic quantile algorithms built on them handle deletions for free.
package freqsketch

import (
	"fmt"

	"streamquantiles/internal/core"
	"streamquantiles/internal/xhash"
)

// Sketch is a linear frequency estimator over a fixed universe.
type Sketch interface {
	// Add applies a signed frequency update to element x.
	Add(x uint64, delta int64)
	// AddBatch applies the same signed update to every element of xs,
	// equivalent to calling Add per element but row-major: each row's
	// hash coefficients load once per chunk and its counter scatter
	// stays within one row at a time (see batch.go).
	AddBatch(xs []uint64, delta int64)
	// AddWeighted adds ws[i] to the frequency of xs[i] for every i
	// (len(ws) must equal len(xs)), equivalent to calling Add per pair
	// (see weighted.go).
	AddWeighted(xs []uint64, ws []int64)
	// Estimate returns the estimated current frequency of x.
	Estimate(x uint64) int64
	// EstimateBatch writes the estimated frequency of every element of
	// xs into out (len(out) must equal len(xs)), row-major: each row's
	// hash coefficients load once for the whole batch. Results are
	// identical to calling Estimate per element. Like Estimate it is
	// safe for concurrent use with other estimate calls.
	EstimateBatch(xs []uint64, out []int64)
	// VarianceEstimate returns an (empirical) estimate of the variance of
	// Estimate for a typical element, used by the OLS post-processing.
	VarianceEstimate() float64
	// SpaceBytes reports the size under the 4-byte-word convention.
	SpaceBytes() int64
	// Reset zeroes every counter, keeping the dimensions and hash
	// functions (see codec.go).
	Reset()
}

func checkDims(w, d int) {
	if w < 1 || d < 1 {
		panic(fmt.Sprintf("freqsketch: invalid dimensions w=%d d=%d", w, d))
	}
}

// CountMin is the Count-Min sketch: d rows of w counters with pairwise
// independent row hashes. Estimates are biased upward in the strict
// turnstile model (the min over rows never underestimates), with error at
// most εn with probability 1−δ for w = O(1/ε), d = O(log 1/δ).
type CountMin struct {
	w, d   int
	seed   uint64
	rows   [][]int64
	hashes []*xhash.Bucket
}

// NewCountMin builds a w×d Count-Min sketch seeded deterministically.
func NewCountMin(w, d int, seed uint64) *CountMin {
	checkDims(w, d)
	rng := xhash.NewSplitMix64(seed)
	cm := &CountMin{w: w, d: d, seed: seed}
	for i := 0; i < d; i++ {
		cm.rows = append(cm.rows, make([]int64, w))
		cm.hashes = append(cm.hashes, xhash.NewBucket(rng, 2, w))
	}
	return cm
}

// Width returns w.
func (cm *CountMin) Width() int { return cm.w }

// Depth returns d.
func (cm *CountMin) Depth() int { return cm.d }

// Add implements Sketch.
func (cm *CountMin) Add(x uint64, delta int64) {
	for i := 0; i < cm.d; i++ {
		cm.rows[i][cm.hashes[i].Hash(x)] += delta
	}
}

// Estimate implements Sketch: the minimum over rows.
func (cm *CountMin) Estimate(x uint64) int64 {
	est := cm.rows[0][cm.hashes[0].Hash(x)]
	for i := 1; i < cm.d; i++ {
		if v := cm.rows[i][cm.hashes[i].Hash(x)]; v < est {
			est = v
		}
	}
	return est
}

// EstimateBatch implements Sketch: the row loop is hoisted outside the
// element loop, so each row's hash coefficients and counter array stay
// hot across the whole batch.
func (cm *CountMin) EstimateBatch(xs []uint64, out []int64) {
	checkBatchLen(xs, out)
	row, h := cm.rows[0], cm.hashes[0]
	for j, x := range xs {
		out[j] = row[h.Hash(x)]
	}
	for i := 1; i < cm.d; i++ {
		row, h = cm.rows[i], cm.hashes[i]
		for j, x := range xs {
			if v := row[h.Hash(x)]; v < out[j] {
				out[j] = v
			}
		}
	}
}

// VarianceEstimate implements Sketch. The Count-Min estimator's noise for
// a typical element is the colliding mass n/w; its second moment is
// approximated, like the Count-Sketch's, by the row F₂ divided by w.
func (cm *CountMin) VarianceEstimate() float64 {
	return rowF2(cm.rows[0]) / float64(cm.w)
}

// SpaceBytes implements Sketch: the counter array plus hash coefficients.
func (cm *CountMin) SpaceBytes() int64 {
	words := int64(cm.w)*int64(cm.d) + 2
	for _, h := range cm.hashes {
		words += h.SpaceWords()
	}
	return words * core.WordBytes
}

// CountSketch is the Count-Sketch: d rows of w counters, a pairwise
// independent bucket hash and a 4-wise independent ±1 sign hash per row;
// the estimate is the median over rows of g_i(x)·C[i, h_i(x)]. Unlike
// Count-Min the estimator is unbiased — the property the paper's DCS
// analysis exploits, since summing log u unbiased estimators lets errors
// cancel (§3.1).
type CountSketch struct {
	w, d  int
	seed  uint64
	rows  [][]int64
	polys []*xhash.Poly // one 4-wise polynomial per row supplies bucket and sign
}

// NewCountSketch builds a w×d Count-Sketch seeded deterministically.
// d should be odd so the median is well defined on row estimates.
//
// Each row draws a single 4-wise independent polynomial; the low bit of
// its value is the ±1 sign and the remaining bits select the bucket.
// The (bucket, sign) pairs of any four distinct elements are jointly
// independent and uniform (up to O(2^−61) bias), which is what the
// Count-Sketch analysis needs, at half the hashing cost of separate
// bucket and sign functions.
func NewCountSketch(w, d int, seed uint64) *CountSketch {
	checkDims(w, d)
	rng := xhash.NewSplitMix64(seed)
	cs := &CountSketch{w: w, d: d, seed: seed}
	for i := 0; i < d; i++ {
		cs.rows = append(cs.rows, make([]int64, w))
		cs.polys = append(cs.polys, xhash.NewPoly(rng, 4))
	}
	return cs
}

// Width returns w.
func (cs *CountSketch) Width() int { return cs.w }

// Depth returns d.
func (cs *CountSketch) Depth() int { return cs.d }

// rowHash returns the bucket index and sign for x in row i.
func (cs *CountSketch) rowHash(i int, x uint64) (bucket int, sign int64) {
	v := cs.polys[i].Eval(x)
	sign = 1 - 2*int64(v&1) // low bit → ±1
	bucket = int((v >> 1) % uint64(cs.w))
	return bucket, sign
}

// Add implements Sketch.
func (cs *CountSketch) Add(x uint64, delta int64) {
	for i := 0; i < cs.d; i++ {
		b, g := cs.rowHash(i, x)
		cs.rows[i][b] += g * delta
	}
}

// Estimate implements Sketch: the median over rows of the signed counter.
// The median buffer lives on the stack (d never exceeds a few dozen in
// any configuration), so concurrent readers never share mutable state —
// a sharded container's merged dyadic fold is queried lock-free by every
// reader.
func (cs *CountSketch) Estimate(x uint64) int64 {
	var buf [maxStackDepth]int64
	scratch := scratchFor(buf[:], cs.d)
	for i := 0; i < cs.d; i++ {
		b, g := cs.rowHash(i, x)
		scratch[i] = g * cs.rows[i][b]
	}
	return medianInPlace(scratch)
}

// EstimateBatch implements Sketch: rows are processed row-major into a
// d×len(xs) matrix (one polynomial's coefficients hot per row), then one
// median per element.
func (cs *CountSketch) EstimateBatch(xs []uint64, out []int64) {
	checkBatchLen(xs, out)
	d := cs.d
	scratch := make([]int64, d*len(xs))
	w := uint64(cs.w)
	for i := 0; i < d; i++ {
		row, p := cs.rows[i], cs.polys[i]
		for j, x := range xs {
			v := p.Eval(x)
			g := 1 - 2*int64(v&1)
			scratch[j*d+i] = g * row[(v>>1)%w]
		}
	}
	for j := range xs {
		out[j] = medianInPlace(scratch[j*d : (j+1)*d])
	}
}

// VarianceEstimate implements Sketch: the classic AMS observation that
// the sum of squared counters of one row estimates F₂, and a single-row
// Count-Sketch estimator has variance ≈ F₂/w. Using one row is the
// paper's recommendation (§3.2.4): the algorithm is insensitive to a
// common scaling of all variances.
func (cs *CountSketch) VarianceEstimate() float64 {
	return rowF2(cs.rows[0]) / float64(cs.w)
}

// SpaceBytes implements Sketch.
func (cs *CountSketch) SpaceBytes() int64 {
	words := int64(cs.w)*int64(cs.d) + 2
	for _, p := range cs.polys {
		words += p.SpaceWords()
	}
	return words * core.WordBytes
}

// RSS is the random subset-sum sketch of Gilbert et al. (VLDB 2002),
// realized in its paired-bucket form: each row hashes elements into 2w
// buckets by a pairwise independent hash; the buckets pair up into w
// random subset/complement pairs, and for an element landing in bucket h,
// C[h] − C[h^1] is an unbiased estimate of its frequency (the subset-sum
// minus the complement's sum cancels everything but x in expectation).
// The sketch takes the median across d rows. Its variance is Θ(F₂/w) per
// pair rather than per counter, needing w = O(1/ε²) for εn accuracy —
// which is why the paper implements it but drops it from the comparison.
type RSS struct {
	w, d   int
	seed   uint64
	rows   [][]int64 // each row has 2w buckets
	hashes []*xhash.Bucket
}

// NewRSS builds a random subset-sum sketch with w subset pairs per row
// and d rows.
func NewRSS(w, d int, seed uint64) *RSS {
	checkDims(w, d)
	rng := xhash.NewSplitMix64(seed)
	r := &RSS{w: w, d: d, seed: seed}
	for i := 0; i < d; i++ {
		r.rows = append(r.rows, make([]int64, 2*w))
		r.hashes = append(r.hashes, xhash.NewBucket(rng, 2, 2*w))
	}
	return r
}

// Add implements Sketch.
func (r *RSS) Add(x uint64, delta int64) {
	for i := 0; i < r.d; i++ {
		r.rows[i][r.hashes[i].Hash(x)] += delta
	}
}

// Estimate implements Sketch. As for CountSketch, the median buffer is
// stack-local so concurrent readers share no mutable state.
func (r *RSS) Estimate(x uint64) int64 {
	var buf [maxStackDepth]int64
	scratch := scratchFor(buf[:], r.d)
	for i := 0; i < r.d; i++ {
		h := r.hashes[i].Hash(x)
		scratch[i] = r.rows[i][h] - r.rows[i][h^1]
	}
	return medianInPlace(scratch)
}

// EstimateBatch implements Sketch.
func (r *RSS) EstimateBatch(xs []uint64, out []int64) {
	checkBatchLen(xs, out)
	d := r.d
	scratch := make([]int64, d*len(xs))
	for i := 0; i < d; i++ {
		row, h := r.rows[i], r.hashes[i]
		for j, x := range xs {
			b := h.Hash(x)
			scratch[j*d+i] = row[b] - row[b^1]
		}
	}
	for j := range xs {
		out[j] = medianInPlace(scratch[j*d : (j+1)*d])
	}
}

// VarianceEstimate implements Sketch.
func (r *RSS) VarianceEstimate() float64 {
	return rowF2(r.rows[0]) / float64(r.w)
}

// SpaceBytes implements Sketch.
func (r *RSS) SpaceBytes() int64 {
	words := 2*int64(r.w)*int64(r.d) + 4
	for _, m := range r.hashes {
		words += m.SpaceWords()
	}
	return words * core.WordBytes
}

// maxStackDepth is the largest d served by the stack-resident median
// buffer in Estimate; deeper sketches (never used by the experiments)
// fall back to an allocation.
const maxStackDepth = 32

// scratchFor returns a length-d median buffer backed by buf when it
// fits.
func scratchFor(buf []int64, d int) []int64 {
	if d <= len(buf) {
		return buf[:d]
	}
	return make([]int64, d)
}

// checkBatchLen validates the out buffer of an EstimateBatch call.
func checkBatchLen(xs []uint64, out []int64) {
	if len(out) != len(xs) {
		panic(fmt.Sprintf("freqsketch: EstimateBatch out length %d != batch length %d", len(out), len(xs)))
	}
}

// rowF2 returns the sum of squared counters of one row — the AMS
// estimator of the second frequency moment.
func rowF2(row []int64) float64 {
	var s float64
	for _, c := range row {
		f := float64(c)
		s += f * f
	}
	return s
}

// medianInPlace returns the median of xs, partially reordering it.
func medianInPlace(xs []int64) int64 {
	// Insertion-select for the tiny d used here (≤ 13 in all experiments).
	n := len(xs)
	for i := 0; i <= n/2; i++ {
		min := i
		for j := i + 1; j < n; j++ {
			if xs[j] < xs[min] {
				min = j
			}
		}
		xs[i], xs[min] = xs[min], xs[i]
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
