package freqsketch

import (
	"bytes"
	"fmt"
	"testing"

	"streamquantiles/internal/xhash"
)

// TestBatchKernelsMatchAdd: AddBatch and AddWeighted leave the counters
// per-item Add leaves, at even and odd depth (pair kernels and the
// one-row tail), at ragged lengths (the element tails, and a chunk
// boundary) and for values of every magnitude, past the field prime
// too (the input reduction).
func TestBatchKernelsMatchAdd(t *testing.T) {
	rng := xhash.NewSplitMix64(9)
	xs := make([]uint64, batchChunk+7)
	ws := make([]int64, len(xs))
	for i := range xs {
		xs[i] = rng.Next() >> rng.Intn(64)
		ws[i] = int64(rng.Intn(7)) - 3
	}
	for _, d := range []int{4, 5} {
		for _, n := range []int{1, 2, 3, 5, len(xs)} {
			ref, got := codecAll(97, d, 11), codecAll(97, d, 11)
			for name, r := range ref {
				t.Run(fmt.Sprintf("%s/d=%d/n=%d", name, d, n), func(t *testing.T) {
					for i, x := range xs[:n] {
						r.Add(x, -2)
						r.Add(x, ws[i])
					}
					g := got[name]
					g.AddBatch(xs[:n], -2)
					g.AddWeighted(xs[:n], ws[:n])
					rb, err := r.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					gb, err := g.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(rb, gb) {
						t.Fatal("batch kernels leave different counters than per-item Add")
					}
				})
			}
		}
	}
}
