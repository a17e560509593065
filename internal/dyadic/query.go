package dyadic

import (
	"cmp"
	"slices"

	"streamquantiles/internal/core"
)

// Batched queries: k quantiles are answered by one shared top-down
// descent of the dyadic tree instead of k independent descents. The
// fractions are sorted once; at every level the frontier of query
// intervals is non-decreasing (children of ordered nodes stay ordered,
// and within one node the smaller target goes left), so the distinct
// left-child intervals form one short sorted list whose estimates are
// fetched with a single EstimateBatch call per level — sibling
// Count-Min/Count-Sketch row lookups batch together and each row's hash
// coefficients load once. The per-query arithmetic (float64 target,
// clamp-to-zero, subtract-left-mass) is exactly the per-φ descent, so
// results are byte-identical to Quantile.

// QuantileBatch implements core.QuantileBatcher.
func (s *Sketch) QuantileBatch(phis []float64) []uint64 {
	if s.n <= 0 {
		panic(core.ErrEmpty)
	}
	k := len(phis)
	order := make([]int, k)
	for i := range order {
		core.CheckPhi(phis[i])
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(phis[a], phis[b]) })

	targets := make([]float64, k)
	ivs := make([]uint64, k) // frontier: interval index per query, sorted
	for j, idx := range order {
		targets[j] = float64(core.TargetRank(phis[idx], s.n))
	}
	qIvs := make([]uint64, 0, k)
	qEst := make([]int64, k)
	for l := s.bits - 1; l >= 0; l-- {
		// Distinct left children of the (sorted) frontier.
		qIvs = qIvs[:0]
		for j := range ivs {
			left := ivs[j] << 1
			if len(qIvs) == 0 || qIvs[len(qIvs)-1] != left {
				qIvs = append(qIvs, left)
			}
		}
		est := qEst[:len(qIvs)]
		if lv := s.lvls[l]; lv.exact != nil {
			for p, iv := range qIvs {
				est[p] = lv.exact[iv]
			}
		} else {
			lv.sk.EstimateBatch(qIvs, est)
		}
		p := 0
		for j := range ivs {
			left := ivs[j] << 1
			for qIvs[p] != left {
				p++
			}
			c := float64(est[p])
			if c < 0 {
				c = 0
			}
			if targets[j] < c {
				ivs[j] = left
			} else {
				targets[j] -= c
				ivs[j] = left + 1
			}
		}
	}
	out := make([]uint64, k)
	for j, idx := range order {
		out[idx] = ivs[j]
	}
	return out
}

// RankBatch implements core.QuantileBatcher: the prefix decomposition
// [0, x) = one dyadic interval per set bit of x is evaluated level-major
// — one EstimateBatch per level over every query with that bit set —
// accumulating in ascending level order exactly as the per-x Rank.
func (s *Sketch) RankBatch(xs []uint64) []int64 {
	out := make([]int64, len(xs))
	limit := uint64(1) << s.bits
	for i, x := range xs {
		if x >= limit {
			out[i] = s.n
		}
	}
	idxs := make([]int, 0, len(xs))
	qIvs := make([]uint64, 0, len(xs))
	qEst := make([]int64, len(xs))
	for l := 0; l < s.bits; l++ {
		idxs, qIvs = idxs[:0], qIvs[:0]
		for i, x := range xs {
			if x < limit && x>>l&1 == 1 {
				idxs = append(idxs, i)
				qIvs = append(qIvs, x>>l-1)
			}
		}
		if len(qIvs) == 0 {
			continue
		}
		est := qEst[:len(qIvs)]
		if lv := s.lvls[l]; lv.exact != nil {
			for p, iv := range qIvs {
				est[p] = lv.exact[iv]
			}
		} else {
			lv.sk.EstimateBatch(qIvs, est)
		}
		for p, i := range idxs {
			out[i] += est[p]
		}
	}
	return out
}
