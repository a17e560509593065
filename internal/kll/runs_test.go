package kll

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
func sortedSamples(s *Sketch) []core.WeightedValue {
	var dst []core.WeightedValue
	for h := 0; h < s.Depth(); h++ {
		w := int64(1) << h
		for _, v := range s.level(h) {
			dst = append(dst, core.WeightedValue{V: v, W: w})
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].V < dst[j].V })
	return dst
}

func sortReference(s *Sketch) *core.QuerySnapshot {
	ref := new(core.QuerySnapshot)
	core.AppendWeightedSnapshot(ref, sortedSamples(s))
	return ref
}

func fedSketch(eps float64, seed uint64, g streamgen.Generator, n int) *Sketch {
	s := New(eps, seed)
	feed(s, streamgen.Generate(g, n))
	return s
}

func TestRunMergeMatchesSortPath(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/kll.bin")
	if err != nil {
		t.Fatal(err)
	}
	states := []struct {
		name  string
		build func(t *testing.T) *Sketch
	}{
		{"fresh", func(*testing.T) *Sketch {
			return fedSketch(0.01, 1, streamgen.Uniform{Bits: 24, Seed: 1}, 37)
		}},
		{"unsorted-levels", func(t *testing.T) *Sketch {
			s := fedSketch(0.01, 2, streamgen.Uniform{Bits: 24, Seed: 2}, 20011)
			unsorted := 0
			for h := 0; h < s.Depth(); h++ {
				if !slices.IsSorted(s.level(h)) {
					unsorted++
				}
			}
			if unsorted < 2 {
				t.Fatalf("only %d unsorted levels: the state does not exercise the cut/copy paths", unsorted)
			}
			return s
		}},
		{"duplicates", func(*testing.T) *Sketch {
			return fedSketch(0.01, 3, streamgen.Uniform{Bits: 4, Seed: 3}, 50000)
		}},
		{"merged", func(*testing.T) *Sketch {
			s := fedSketch(0.01, 4, streamgen.Uniform{Bits: 24, Seed: 4}, 30000)
			s.Merge(fedSketch(0.01, 5, streamgen.Zipf{S: 1.1, Bits: 24, Seed: 5}, 25000))
			return s
		}},
		{"codec-roundtrip", func(t *testing.T) *Sketch {
			blob, err := fedSketch(0.001, 6, streamgen.Uniform{Bits: 24, Seed: 6}, 1<<16).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			s := New(0.5, 0)
			if err := s.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"golden", func(t *testing.T) *Sketch {
			s := New(0.5, 0)
			if err := s.UnmarshalBinary(golden); err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			s := st.build(t)
			equivtest.Check(t, s, sortReference(s))
		})
	}
}
