package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// testRuns lists each slice as a run of weight i+1.
type testRuns [][]uint64

func (t testRuns) ListRuns(rs *Runs) {
	for i, vals := range t {
		rs.AddRun(vals, int64(i+1))
	}
}

// sortedReference is the re-sort path the merge replaces: every sample
// appended, then one global sort by value.
func sortedReference(t testRuns) []WeightedValue {
	var out []WeightedValue
	for i, vals := range t {
		for _, v := range vals {
			out = append(out, WeightedValue{V: v, W: int64(i + 1)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

// mergeOf runs one pooled merge and copies its output out.
func mergeOf(t testRuns) []WeightedValue {
	rs := runsPool.Get().(*Runs)
	out := slices.Clone(rs.merge(t))
	rs.reset()
	runsPool.Put(rs)
	return out
}

// sameSamples reports whether a and b are the same sample multiset in
// value order; samples of equal value may appear in any order.
func sameSamples(a, b []WeightedValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].V != b[i].V {
			return false
		}
	}
	byVW := func(x, y WeightedValue) int {
		if x.V != y.V {
			if x.V < y.V {
				return -1
			}
			return 1
		}
		return int(x.W - y.W)
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byVW)
	slices.SortFunc(b, byVW)
	return slices.Equal(a, b)
}

func TestRunsMerge(t *testing.T) {
	runs := testRuns{
		{1, 4, 9, 12},                      // sorted: merged in place
		nil,                                // empty
		{7, 8, 2, 3, 11},                   // unsorted: merged as a sorted copy
		{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 10}, // a second copy after the first
		{4, 4, 4},                          // duplicates across runs
	}
	orig := make(testRuns, len(runs))
	for i, r := range runs {
		orig[i] = slices.Clone(r)
	}
	got := mergeOf(runs)
	if !slices.IsSortedFunc(got, func(a, b WeightedValue) int { return int(a.V) - int(b.V) }) {
		t.Fatalf("merge out of order: %v", got)
	}
	if want := sortedReference(runs); !sameSamples(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range runs {
		if !slices.Equal(runs[i], orig[i]) {
			t.Fatalf("merge modified listed run %d: %v, was %v", i, runs[i], orig[i])
		}
	}
}

func TestRunsMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		runs := make(testRuns, rng.Intn(12))
		for i := range runs {
			vals := make([]uint64, rng.Intn(40))
			for j := range vals {
				vals[j] = uint64(rng.Intn(64))
			}
			switch rng.Intn(3) {
			case 0:
				slices.Sort(vals)
			case 1: // a few concatenated sorted stretches
				for lo := 0; lo < len(vals); lo += 10 {
					slices.Sort(vals[lo:min(lo+10, len(vals))])
				}
			}
			runs[i] = vals
		}
		want := sortedReference(runs)
		if got := mergeOf(runs); !sameSamples(got, want) {
			t.Fatalf("trial %d: merge = %v, want %v", trial, got, want)
		}
		if len(want) == 0 {
			continue
		}
		phis := []float64{0.01, 0.25, 0.5, 0.5, 0.75, 0.99}
		xs := []uint64{0, 1, 17, 32, 63, 64, 100}
		if got, ref := RunsQuantiles(runs, phis), WeightedQuantiles(want, phis); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: RunsQuantiles = %v, want %v", trial, got, ref)
		}
		if got, ref := RunsRanks(runs, xs), WeightedRanks(want, xs); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: RunsRanks = %v, want %v", trial, got, ref)
		}
		if got, ref := RunsQuantile(runs, 0.3), WeightedQuantile(want, 0.3); got != ref {
			t.Fatalf("trial %d: RunsQuantile = %d, want %d", trial, got, ref)
		}
		if got, ref := RunsRank(runs, 31), WeightedRank(want, 31); got != ref {
			t.Fatalf("trial %d: RunsRank = %d, want %d", trial, got, ref)
		}
		var qs, ref QuerySnapshot
		AppendRunsSnapshot(&qs, runs)
		AppendWeightedSnapshot(&ref, want)
		if !slices.Equal(qs.QuantileBatch(phis), ref.QuantileBatch(phis)) ||
			!slices.Equal(qs.RankBatch(xs), ref.RankBatch(xs)) || qs.N != ref.N {
			t.Fatalf("trial %d: snapshot answers differ from the re-sort path", trial)
		}
	}
}
