package ols

import (
	"cmp"
	"slices"

	"streamquantiles/internal/core"
)

// Batched queries. Post is already a query-time snapshot: building it
// runs the BLUE solve exactly once, so a QuantileBatch call amortizes
// the O((1/ε)·log u) Process step across the whole φ list — the paper's
// per-query "re-solve the tree" cost (§4.3.3) becomes once per
// snapshot. The batch descent itself walks the truncated tree in
// lockstep over the sorted fractions: the frontier of query intervals
// is non-decreasing, so consecutive queries share their corrected-count
// lookups. Per-query arithmetic matches Quantile exactly, so results
// are byte-identical.

// QuantileBatch implements core.QuantileBatcher.
func (p *Post) QuantileBatch(phis []float64) []uint64 {
	if p.n <= 0 {
		panic(core.ErrEmpty)
	}
	k := len(phis)
	order := make([]int, k)
	for i := range order {
		core.CheckPhi(phis[i])
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(phis[a], phis[b]) })

	bits := p.sk.UniverseBits()
	targets := make([]float64, k)
	ivs := make([]uint64, k)
	leafLvl := make([]int, k) // level at which the query left T̂ (0 = descended fully)
	for j, idx := range order {
		targets[j] = float64(core.TargetRank(phis[idx], p.n))
		leafLvl[j] = -1 // still descending
	}
	for lvl := bits; lvl > 0; lvl-- {
		// One corrected-count lookup per distinct frontier node: the
		// frontier is sorted, so consecutive queries reuse the last one.
		var (
			haveMemo bool
			memoIv   uint64
			memoVal  float64
			memoOK   bool
		)
		for j := range ivs {
			if leafLvl[j] >= 0 {
				continue
			}
			if !haveMemo || ivs[j] != memoIv {
				memoIv = ivs[j]
				memoVal, memoOK = p.lookup(lvl-1, 2*memoIv)
				haveMemo = true
			}
			if !memoOK {
				leafLvl[j] = lvl // leaf of T̂: finish with raw estimates
				continue
			}
			lmass := memoVal
			ivs[j] *= 2
			if lmass < 0 {
				lmass = 0
			}
			if targets[j] >= lmass {
				targets[j] -= lmass
				ivs[j]++
			}
		}
	}
	out := make([]uint64, k)
	for j, idx := range order {
		iv, target := ivs[j], targets[j]
		for l := leafLvl[j]; l > 0; l-- {
			iv *= 2
			c := float64(p.sk.EstimateInterval(l-1, iv))
			if c < 0 {
				c = 0
			}
			if target >= c {
				target -= c
				iv++
			}
		}
		out[idx] = iv
	}
	return out
}

// RankBatch implements core.QuantileBatcher. The per-x tree walk is
// already cheap next to the BLUE solve; the batch win is that the solve
// ran once, at Process time, for the whole batch.
func (p *Post) RankBatch(xs []uint64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = p.Rank(x)
	}
	return out
}
