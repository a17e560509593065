package qdigest

import (
	"os"
	"sort"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/equivtest"
	"streamquantiles/internal/streamgen"
)

// indexSortReference is the rebuild the level-run merge replaced, via
// nodeSetSnapshot.
func indexSortReference(d *Digest) *core.QuerySnapshot {
	d.drain()
	nodes := make(map[uint64]int64)
	it := nodeIter{d: d}
	for id, w, ok := it.next(); ok; id, w, ok = it.next() {
		nodes[id] = w
	}
	return nodeSetSnapshot(d.bits, d.n, nodes)
}

// nodeSetSnapshot builds the query snapshot of a node set by sorting:
// raw lo/hi/weight columns gathered through an index sort into
// post-order, and the rank steps index-sorted by threshold.
func nodeSetSnapshot(bits int, n int64, nodes map[uint64]int64) *core.QuerySnapshot {
	var los, his []uint64
	var ws []int64
	for id, w := range nodes {
		lo, hi := (&Digest{bits: bits}).span(id)
		los, his, ws = append(los, lo), append(his, hi), append(ws, w)
	}
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if his[i] != his[j] {
			return his[i] < his[j]
		}
		return los[i] > los[j]
	})
	ref := &core.QuerySnapshot{N: n}
	var ats []uint64
	var ds []int64
	var cum int64
	for _, i := range order {
		cum += ws[i]
		ref.QVals = append(ref.QVals, his[i])
		ref.QKeys = append(ref.QKeys, cum)
		half := ws[i] / 2
		ats, ds = append(ats, los[i]+1), append(ds, half)
		if his[i] != ^uint64(0) {
			ats, ds = append(ats, his[i]+1), append(ds, ws[i]-half)
		}
	}
	steps := make([]int, len(ats))
	for i := range steps {
		steps[i] = i
	}
	sort.Slice(steps, func(a, b int) bool { return ats[steps[a]] < ats[steps[b]] })
	cum = 0
	for _, i := range steps {
		cum += ds[i]
		if k := len(ref.RVals); k > 0 && ref.RVals[k-1] == ats[i] {
			ref.RRanks[k-1] = cum
			continue
		}
		ref.RVals = append(ref.RVals, ats[i])
		ref.RRanks = append(ref.RRanks, cum)
	}
	return ref
}

func fedDigest(eps float64, bits int, g streamgen.Generator, n int) *Digest {
	d := New(eps, bits)
	feed(d, streamgen.Generate(g, n))
	return d
}

// topOfUniverse maps a stream onto the highest values of [0, 2^bits),
// where hi+1 is largest.
type topOfUniverse struct {
	streamgen.Generator
	bits int
}

func (g topOfUniverse) Fill(dst []uint64) {
	g.Generator.Fill(dst)
	for i := range dst {
		dst[i] = (uint64(1)<<g.bits - 1) - dst[i]
	}
}

func TestTypedSortMatchesIndexSort(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/qdigest.bin")
	if err != nil {
		t.Fatal(err)
	}
	states := []struct {
		name  string
		build func(t *testing.T) *Digest
	}{
		{"fresh", func(*testing.T) *Digest {
			return fedDigest(0.01, 24, streamgen.Uniform{Bits: 24, Seed: 1}, 37)
		}},
		{"uniform", func(*testing.T) *Digest {
			return fedDigest(0.001, 24, streamgen.Uniform{Bits: 24, Seed: 2}, 1<<17)
		}},
		{"one-bit", func(*testing.T) *Digest {
			return fedDigest(0.01, 1, streamgen.Uniform{Bits: 1, Seed: 3}, 5000)
		}},
		{"max-bits", func(*testing.T) *Digest {
			g := topOfUniverse{streamgen.Zipf{S: 1.2, Bits: maxBits, Seed: 4}, maxBits}
			return fedDigest(0.01, maxBits, g, 20000)
		}},
		{"merged", func(*testing.T) *Digest {
			d := fedDigest(0.01, 24, streamgen.Uniform{Bits: 24, Seed: 5}, 30011)
			d.Merge(fedDigest(0.01, 24, streamgen.Zipf{S: 1.1, Bits: 24, Seed: 6}, 25013))
			return d
		}},
		{"codec-roundtrip", func(t *testing.T) *Digest {
			blob, err := fedDigest(0.005, 24, streamgen.Normal{Bits: 24, Sigma: 0.1, Seed: 7}, 1<<16).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			d := New(0.5, 1)
			if err := d.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"golden", func(t *testing.T) *Digest {
			d := New(0.5, 1)
			if err := d.UnmarshalBinary(golden); err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			d := st.build(t)
			// Queries drain pending updates; drain first so the
			// encoding check sees only what a query could change.
			d.Flush()
			equivtest.Check(t, d, indexSortReference(d))
		})
	}
}
