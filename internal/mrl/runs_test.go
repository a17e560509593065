package mrl

import (
	"os"
	"slices"
	"sort"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/equivtest"
	"streamquantiles/internal/streamgen"
)

// sortedSamples is the query path the run merge replaced: every
// retained element appended with its weight, then one global sort.
func sortedSamples(m *MRL99) []core.WeightedValue {
	var dst []core.WeightedValue
	for _, b := range m.bufs {
		w := b.weight
		if w == 0 {
			w = int64(1) << b.level
		}
		for _, v := range b.data {
			dst = append(dst, core.WeightedValue{V: v, W: w})
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].V < dst[j].V })
	return dst
}

func sortReference(m *MRL99) *core.QuerySnapshot {
	ref := new(core.QuerySnapshot)
	core.AppendWeightedSnapshot(ref, sortedSamples(m))
	return ref
}

func fedMRL(eps float64, seed uint64, g streamgen.Generator, n int) *MRL99 {
	m := New(eps, seed)
	feed(m, streamgen.Generate(g, n))
	return m
}

func TestRunMergeMatchesSortPath(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/mrl99.bin")
	if err != nil {
		t.Fatal(err)
	}
	states := []struct {
		name  string
		build func(t *testing.T) *MRL99
	}{
		{"fresh", func(*testing.T) *MRL99 {
			return fedMRL(0.01, 1, streamgen.Uniform{Bits: 24, Seed: 1}, 37)
		}},
		{"partial-buffer", func(t *testing.T) *MRL99 {
			m := fedMRL(0.01, 2, streamgen.Uniform{Bits: 24, Seed: 2}, 100003)
			if m.cur == nil || len(m.cur.data) < 2 || slices.IsSorted(m.cur.data) {
				t.Fatal("the state holds no unsorted partial buffer")
			}
			return m
		}},
		{"duplicates", func(*testing.T) *MRL99 {
			return fedMRL(0.01, 3, streamgen.Uniform{Bits: 4, Seed: 3}, 50000)
		}},
		{"merged", func(*testing.T) *MRL99 {
			m := fedMRL(0.01, 4, streamgen.Uniform{Bits: 24, Seed: 4}, 30011)
			m.Merge(fedMRL(0.01, 5, streamgen.Zipf{S: 1.1, Bits: 24, Seed: 5}, 25013))
			return m
		}},
		{"codec-roundtrip", func(t *testing.T) *MRL99 {
			blob, err := fedMRL(0.001, 6, streamgen.Uniform{Bits: 24, Seed: 6}, 1<<16).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			m := New(0.5, 0)
			if err := m.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"golden", func(t *testing.T) *MRL99 {
			m := New(0.5, 0)
			if err := m.UnmarshalBinary(golden); err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			m := st.build(t)
			equivtest.Check(t, m, sortReference(m))
		})
	}
}
