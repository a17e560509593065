// Package equivtest checks that a summary's query paths answer exactly
// like a reference snapshot built by an independent path. The summary
// packages' tests use it to pin a rebuilt query path to the one it
// replaced: the reference is built by the old code, kept in the test.
package equivtest

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"streamquantiles/internal/core"
)

// Querier is the query surface under test.
type Querier interface {
	core.QuantileBatcher
	core.Snapshotter
	Quantile(phi float64) uint64
	Rank(x uint64) int64
	MarshalBinary() ([]byte, error)
}

// Phis returns the quantile probe grid: a 0.001-spaced grid plus the
// fractions closest to 0 and 1.
func Phis() []float64 {
	phis := core.EvenPhis(0.001)
	return append(phis, math.SmallestNonzeroFloat64, math.Nextafter(1, 0))
}

// RankProbes returns every value on either side of each step of ref's
// rank function, plus the extremes of the universe: the probes that
// separate any two different step functions.
func RankProbes(ref *core.QuerySnapshot) []uint64 {
	xs := []uint64{0, 1, math.MaxUint64}
	for _, v := range ref.RVals {
		xs = append(xs, v-1, v, v+1)
	}
	slices.Sort(xs)
	return slices.Compact(xs)
}

// singleProbes bounds the per-item Quantile and Rank calls of Check.
const singleProbes = 25

// Check asserts that q's live queries and its snapshot answer every
// probe exactly as ref, and that querying leaves q's encoding unchanged.
// Callers of summaries whose queries flush pending updates flush before
// calling Check.
func Check(t testing.TB, q Querier, ref *core.QuerySnapshot) {
	t.Helper()
	before, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	phis, xs := Phis(), RankProbes(ref)
	wantQ, wantR := ref.QuantileBatch(phis), ref.RankBatch(xs)

	if got := q.QuantileBatch(phis); !slices.Equal(got, wantQ) {
		t.Fatalf("QuantileBatch differs from the reference at %d of %d fractions", diffs(got, wantQ), len(phis))
	}
	if got := q.RankBatch(xs); !slices.Equal(got, wantR) {
		t.Fatalf("RankBatch differs from the reference at %d of %d values", diffs(got, wantR), len(xs))
	}
	// Single queries rebuild per call, so they probe a spread subset.
	for i := 0; i < len(phis); i += len(phis)/singleProbes + 1 {
		if got := q.Quantile(phis[i]); got != wantQ[i] {
			t.Fatalf("Quantile(%v) = %d, reference %d", phis[i], got, wantQ[i])
		}
	}
	for i := 0; i < len(xs); i += len(xs)/singleProbes + 1 {
		if got := q.Rank(xs[i]); got != wantR[i] {
			t.Fatalf("Rank(%d) = %d, reference %d", xs[i], got, wantR[i])
		}
	}
	var qs core.QuerySnapshot
	q.AppendQuerySnapshot(&qs)
	if qs.N != ref.N {
		t.Fatalf("snapshot N = %d, reference %d", qs.N, ref.N)
	}
	if got := qs.QuantileBatch(phis); !slices.Equal(got, wantQ) {
		t.Fatalf("snapshot quantiles differ from the reference at %d of %d fractions", diffs(got, wantQ), len(phis))
	}
	if got := qs.RankBatch(xs); !slices.Equal(got, wantR) {
		t.Fatalf("snapshot ranks differ from the reference at %d of %d values", diffs(got, wantR), len(xs))
	}

	after, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("queries changed the summary's encoding")
	}
}

// diffs counts the positions where a and b differ.
func diffs[T comparable](a, b []T) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
