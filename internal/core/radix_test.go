package core

import (
	"slices"
	"testing"

	"streamquantiles/internal/xhash"
)

// TestRadixSortMatchesSort: every universe width, including ones whose
// last digit is partial and inputs whose digits never vary.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := xhash.NewSplitMix64(5)
	tmp := make([]uint64, 1000)
	for _, bits := range []int{1, 7, 8, 16, 24, 61, 64} {
		for _, n := range []int{0, 1, 2, 3, 1000} {
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = rng.Next() >> (64 - bits)
				if i%3 == 0 {
					xs[i] &= 0xff
				}
			}
			want := slices.Clone(xs)
			slices.Sort(want)
			RadixSort(xs, tmp, bits)
			if !slices.Equal(xs, want) {
				t.Fatalf("bits=%d n=%d: radix order differs from slices.Sort", bits, n)
			}
			if n == 0 {
				continue
			}
			same := make([]uint64, n)
			for i := range same {
				same[i] = want[n-1]
			}
			RadixSort(same, tmp, bits)
			if slices.ContainsFunc(same, func(x uint64) bool { return x != want[n-1] }) {
				t.Fatalf("bits=%d n=%d: a constant input changed", bits, n)
			}
		}
	}
}
