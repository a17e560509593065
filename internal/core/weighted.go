package core

import (
	"cmp"
	"slices"
)

// WeightedValue is one retained sample together with the number of stream
// elements it represents. The sample-based summaries (Random, MRL99)
// answer queries from a collection of these.
type WeightedValue struct {
	V uint64
	W int64
}

// WeightedRank estimates the rank of x over a value-sorted sample set:
// the total weight of samples strictly smaller than x.
func WeightedRank(sorted []WeightedValue, x uint64) int64 {
	var r int64
	for _, it := range sorted {
		if it.V >= x {
			break
		}
		r += it.W
	}
	return r
}

// sortedPhiOrder returns the indices of phis in ascending fraction order,
// validating each fraction.
func sortedPhiOrder(phis []float64) []int {
	order := make([]int, len(phis))
	for i := range order {
		CheckPhi(phis[i])
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(phis[a], phis[b]) })
	return order
}

// WeightedQuantiles answers a batch of fractions over a value-sorted
// sample set in a single cumulative scan.
func WeightedQuantiles(sorted []WeightedValue, phis []float64) []uint64 {
	if len(sorted) == 0 {
		panic(ErrEmpty)
	}
	var total int64
	for _, it := range sorted {
		total += it.W
	}
	order := sortedPhiOrder(phis)
	out := make([]uint64, len(phis))
	var cum int64
	pos := 0
	for _, idx := range order {
		target := int64(phis[idx] * float64(total))
		if target >= total {
			target = total - 1
		}
		for pos < len(sorted) && cum+sorted[pos].W <= target {
			cum += sorted[pos].W
			pos++
		}
		if pos >= len(sorted) {
			out[idx] = sorted[len(sorted)-1].V
		} else {
			out[idx] = sorted[pos].V
		}
	}
	return out
}

// WeightedQuantile reports the sample whose weighted position covers
// ⌊φ·W⌋ in a value-sorted sample set, W being the total weight. This is
// the element whose estimated rank is closest to φn up to half a sample
// weight, matching the extraction rule of the sampling algorithms.
func WeightedQuantile(sorted []WeightedValue, phi float64) uint64 {
	CheckPhi(phi)
	if len(sorted) == 0 {
		panic(ErrEmpty)
	}
	var total int64
	for _, it := range sorted {
		total += it.W
	}
	target := int64(phi * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum int64
	for _, it := range sorted {
		cum += it.W
		if cum > target {
			return it.V
		}
	}
	return sorted[len(sorted)-1].V
}
