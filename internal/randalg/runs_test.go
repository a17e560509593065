package randalg

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
// retained element appended with its weight 2^level, then one global
// sort.
func sortedSamples(r *Random) []core.WeightedValue {
	var out []core.WeightedValue
	for _, b := range r.bufs {
		w := int64(1) << b.level
		for _, v := range b.data {
			out = append(out, core.WeightedValue{V: v, W: w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

func sortReference(r *Random) *core.QuerySnapshot {
	ref := new(core.QuerySnapshot)
	core.AppendWeightedSnapshot(ref, sortedSamples(r))
	return ref
}

func fedRandom(eps float64, seed uint64, g streamgen.Generator, n int) *Random {
	r := New(eps, seed)
	feed(r, streamgen.Generate(g, n))
	return r
}

func TestRunMergeMatchesSortPath(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/random.bin")
	if err != nil {
		t.Fatal(err)
	}
	states := []struct {
		name  string
		build func(t *testing.T) *Random
	}{
		{"fresh", func(*testing.T) *Random {
			return fedRandom(0.01, 1, streamgen.Uniform{Bits: 24, Seed: 1}, 37)
		}},
		{"partial-buffer", func(t *testing.T) *Random {
			r := fedRandom(0.01, 2, streamgen.Uniform{Bits: 24, Seed: 2}, 100003)
			if r.cur == nil || len(r.cur.data) < 2 || slices.IsSorted(r.cur.data) {
				t.Fatal("the state holds no unsorted partial buffer")
			}
			return r
		}},
		{"duplicates", func(*testing.T) *Random {
			return fedRandom(0.01, 3, streamgen.Uniform{Bits: 4, Seed: 3}, 50000)
		}},
		{"merged", func(*testing.T) *Random {
			r := fedRandom(0.01, 4, streamgen.Uniform{Bits: 24, Seed: 4}, 30011)
			r.Merge(fedRandom(0.01, 5, streamgen.Zipf{S: 1.1, Bits: 24, Seed: 5}, 25013))
			return r
		}},
		{"codec-roundtrip", func(t *testing.T) *Random {
			blob, err := fedRandom(0.001, 6, streamgen.Uniform{Bits: 24, Seed: 6}, 1<<16).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			r := New(0.5, 0)
			if err := r.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"golden", func(t *testing.T) *Random {
			r := New(0.5, 0)
			if err := r.UnmarshalBinary(golden); err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			r := st.build(t)
			equivtest.Check(t, r, sortReference(r))
		})
	}
}

// TestRepeatedMergesKeepHierarchySize merges many small summaries, none
// of which fills enough buffers to force a mergeLowest, into one: each
// Merge must still trim the slots it appended, so ingestion never fills
// more than h+1 buffers.
func TestRepeatedMergesKeepHierarchySize(t *testing.T) {
	acc := New(0.05, 1)
	for i := 0; i < 40; i++ {
		part := fedRandom(0.05, uint64(i+2), streamgen.Uniform{Bits: 24, Seed: uint64(i + 2)}, 300)
		acc.Merge(part)
		feed(acc, streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: uint64(100 + i)}, 300))
		if len(acc.bufs) > acc.h+1 {
			t.Fatalf("after merge %d: %d buffer slots exceed h+1 = %d", i, len(acc.bufs), acc.h+1)
		}
		if err := acc.Invariants(); err != nil {
			t.Fatalf("after merge %d: %v", i, err)
		}
	}
}
