package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// merge lists l's runs and merges them into a fresh value-sorted sample
// set: the run merge, read back as weights.
func (rs *Runs) merge(l RunLister) []WeightedValue {
	l.ListRuns(rs)
	n := rs.size()
	vals, cum := make([]uint64, n), make([]int64, n)
	rs.mergeInto(vals, cum)
	out := make([]WeightedValue, n)
	var prev int64
	for i := range out {
		out[i] = WeightedValue{V: vals[i], W: cum[i] - prev}
		prev = cum[i]
	}
	return out
}

// checkMerge asserts that the merge of runs, its snapshot and every
// Runs* query path answer as the re-sort path over the same samples.
func checkMerge(t *testing.T, name string, runs testRuns) {
	t.Helper()
	orig := make(testRuns, len(runs))
	for i, r := range runs {
		orig[i] = slices.Clone(r)
	}
	want := sortedReference(runs)
	got := mergeOf(runs)
	if !sameSamples(got, want) {
		t.Fatalf("%s: merge = %v, want %v", name, got, want)
	}
	var ref QuerySnapshot
	AppendWeightedSnapshot(&ref, want)
	var qs QuerySnapshot
	AppendRunsSnapshot(&qs, runs)
	if qs.N != ref.N || qs.RStrict != ref.RStrict || !slices.Equal(qs.QVals, ref.QVals) || !slices.Equal(qs.RVals, ref.RVals) {
		t.Fatalf("%s: snapshot N=%d vals %v, reference N=%d vals %v", name, qs.N, qs.QVals, ref.N, ref.QVals)
	}
	xs := []uint64{0, 1, 2, 3, 63, 64, math.MaxUint64 - 1, math.MaxUint64}
	for _, v := range want {
		xs = append(xs, v.V-1, v.V, v.V+1)
	}
	if got, ref := qs.RankBatch(xs), ref.RankBatch(xs); !slices.Equal(got, ref) {
		t.Fatalf("%s: snapshot ranks %v, reference %v", name, got, ref)
	}
	if got, ref := RunsRanks(runs, xs), WeightedRanks(want, xs); !slices.Equal(got, ref) {
		t.Fatalf("%s: RunsRanks = %v, want %v", name, got, ref)
	}
	for _, x := range xs {
		if got, ref := RunsRank(runs, x), WeightedRank(want, x); got != ref {
			t.Fatalf("%s: RunsRank(%d) = %d, want %d", name, x, got, ref)
		}
	}
	if len(want) > 0 {
		phis := []float64{math.SmallestNonzeroFloat64, 0.01, 0.25, 0.5, 0.75, 0.99, math.Nextafter(1, 0)}
		if got, ref := qs.QuantileBatch(phis), ref.QuantileBatch(phis); !slices.Equal(got, ref) {
			t.Fatalf("%s: snapshot quantiles %v, reference %v", name, got, ref)
		}
		if got, ref := RunsQuantiles(runs, phis), WeightedQuantiles(want, phis); !slices.Equal(got, ref) {
			t.Fatalf("%s: RunsQuantiles = %v, want %v", name, got, ref)
		}
		for _, phi := range phis {
			if got, ref := RunsQuantile(runs, phi), WeightedQuantile(want, phi); got != ref {
				t.Fatalf("%s: RunsQuantile(%v) = %d, want %d", name, phi, got, ref)
			}
		}
	}
	for i := range runs {
		if !slices.Equal(runs[i], orig[i]) {
			t.Fatalf("%s: merge modified listed run %d", name, i)
		}
	}
}

// sortedRun returns n sorted values drawn below limit.
func sortedRun(rng *rand.Rand, n int, limit uint64) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() % limit
	}
	slices.Sort(vals)
	return vals
}

func TestMergeEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	runsOf := func(count, size int) testRuns {
		runs := make(testRuns, count)
		for i := range runs {
			runs[i] = sortedRun(rng, size+i, 1000)
		}
		return runs
	}
	top := uint64(math.MaxUint64)
	cases := []struct {
		name string
		runs testRuns
	}{
		{"zero-runs", nil},
		{"only-empty-runs", testRuns{nil, {}, nil}},
		{"one-run", testRuns{{3, 5, 5, 9}}},
		{"one-unsorted-run", testRuns{{9, 5, 3, 5}}},
		{"two-runs", runsOf(2, 7)},
		{"three-runs", runsOf(3, 11)},
		{"four-runs", runsOf(4, 5)},
		{"seven-runs", runsOf(7, 9)},
		{"eight-runs", runsOf(8, 13)},
		{"thirteen-runs", runsOf(13, 3)},
		{"sixteen-runs", runsOf(16, 17)},
		{"skewed-sizes", testRuns{sortedRun(rng, 1, 50), sortedRun(rng, 400, 50), sortedRun(rng, 2, 50), sortedRun(rng, 90, 50), sortedRun(rng, 1, 50)}},
		{"max-uint64", testRuns{{0, top - 1, top}, {top, top}, {1, top}, {top}}},
		{"all-max-uint64", testRuns{{top, top}, {top}, {top, top, top}}},
		{"all-duplicates", testRuns{{7, 7, 7}, {7, 7}, {7}, {7, 7, 7, 7}, {7}}},
		{"duplicates-across-weights", testRuns{{1, 4, 4, 4}, {4, 4}, {0, 4, 9}, {4}, {4, 4, 4, 9}, {2, 4}}},
		{"copied-runs", testRuns{{5, 1, 4}, {1, 2, 3}, {9, 8, 7, 6}, {2, 2, 1}, {top, 0, top}}},
	}
	for _, c := range cases {
		checkMerge(t, c.name, c.runs)
	}
}

func TestRunsRankMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		runs := make(testRuns, rng.Intn(20))
		for i := range runs {
			runs[i] = sortedRun(rng, rng.Intn(60), 1+uint64(rng.Intn(200)))
			if rng.Intn(3) == 0 {
				rng.Shuffle(len(runs[i]), func(a, b int) { runs[i][a], runs[i][b] = runs[i][b], runs[i][a] })
			}
		}
		merged := mergeOf(runs)
		for _, x := range []uint64{0, 1, uint64(rng.Intn(200)), uint64(rng.Intn(200)), 199, 200, math.MaxUint64} {
			if got, want := RunsRank(runs, x), WeightedRank(merged, x); got != want {
				t.Fatalf("trial %d: RunsRank(%d) = %d, merge path %d", trial, x, got, want)
			}
		}
	}
}

// TestMergeSegmentsStable checks that entries of equal value keep
// segment order, the tie rule q-digest's node orders rely on.
func TestMergeSegmentsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		segs := make([][]uint64, 1+rng.Intn(24))
		var sizes []int
		total := 0
		for i := range segs {
			segs[i] = sortedRun(rng, rng.Intn(40), 16)
			sizes = append(sizes, len(segs[i]))
			total += len(segs[i])
		}
		v, w := make([]uint64, total), make([]int64, total)
		MergeSegments(v, w, sizes, func(i int, v []uint64, w []int64) {
			copy(v, segs[i])
			for j := range w {
				w[j] = int64(i)
			}
		})
		for k := 1; k < total; k++ {
			if v[k-1] > v[k] || v[k-1] == v[k] && w[k-1] > w[k] {
				t.Fatalf("trial %d: entries %d and %d out of (value, segment) order: (%d,%d) then (%d,%d)",
					trial, k-1, k, v[k-1], w[k-1], v[k], w[k])
			}
		}
	}
}

// TestSharedColumnsReset checks that a snapshot whose rank side shares
// the quantile columns is un-shared by Reset: a family that fills the
// two sides separately then writes them independently.
func TestSharedColumnsReset(t *testing.T) {
	var qs QuerySnapshot
	AppendRunsSnapshot(&qs, testRuns{{1, 5, 9}, {2, 6}})
	if &qs.RVals[0] != &qs.QVals[0] || &qs.RRanks[0] != &qs.QKeys[0] {
		t.Fatal("weighted snapshot does not share its rank columns")
	}
	if cap(qs.QVals) != len(qs.QVals) || cap(qs.QKeys) != len(qs.QKeys) {
		t.Fatalf("fresh snapshot columns not exact-size: len %d cap %d", len(qs.QVals), cap(qs.QVals))
	}
	qs.Reset()
	if qs.RVals != nil || qs.RRanks != nil {
		t.Fatal("Reset kept shared rank columns")
	}
	qs.QVals = append(qs.QVals, 10, 20)
	qs.RVals = append(qs.RVals, 30)
	if qs.QVals[0] != 10 || qs.RVals[0] != 30 {
		t.Fatalf("columns written through each other: QVals %v, RVals %v", qs.QVals, qs.RVals)
	}
}

// TestFoldRunsCopiesSeveralListers folds the runs of several listers
// into one snapshot and checks it against a re-sort of the union of
// their samples. Every lister is overwritten as soon as it has been
// listed, as a shard written after its lock is released would be: the
// fold must merge the copies CopyRuns took, not the live runs.
func TestFoldRunsCopiesSeveralListers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		parts := make([]testRuns, 1+rng.Intn(6))
		var union []WeightedValue
		for p := range parts {
			parts[p] = make(testRuns, rng.Intn(5))
			for i := range parts[p] {
				parts[p][i] = sortedRun(rng, rng.Intn(40), 1+uint64(rng.Intn(300)))
				if rng.Intn(3) == 0 {
					rng.Shuffle(len(parts[p][i]), func(a, b int) {
						parts[p][i][a], parts[p][i][b] = parts[p][i][b], parts[p][i][a]
					})
				}
			}
			union = append(union, sortedReference(parts[p])...)
		}
		slices.SortStableFunc(union, func(a, b WeightedValue) int { return cmp.Compare(a.V, b.V) })
		var ref QuerySnapshot
		AppendWeightedSnapshot(&ref, union)

		qs := FoldRuns(func(rs *Runs) {
			for _, part := range parts {
				rs.CopyRuns(part)
				for _, run := range part {
					for i := range run {
						run[i] = math.MaxUint64
					}
				}
			}
		})
		if qs.N != ref.N || len(qs.QVals) != len(union) || !slices.Equal(qs.QVals, ref.QVals) {
			t.Fatalf("trial %d: fold N=%d vals %v, reference N=%d vals %v", trial, qs.N, qs.QVals, ref.N, ref.QVals)
		}
		xs := []uint64{0, 1, 150, 299, 300, math.MaxUint64}
		for _, v := range union {
			xs = append(xs, v.V, v.V+1)
		}
		if got, want := qs.RankBatch(xs), ref.RankBatch(xs); !slices.Equal(got, want) {
			t.Fatalf("trial %d: fold ranks %v, reference %v", trial, got, want)
		}
		if len(union) > 0 {
			phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
			if got, want := qs.QuantileBatch(phis), ref.QuantileBatch(phis); !slices.Equal(got, want) {
				t.Fatalf("trial %d: fold quantiles %v, reference %v", trial, got, want)
			}
		}
	}
}
