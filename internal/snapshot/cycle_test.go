package snapshot

import (
	"slices"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/equivtest"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/streamgen"
)

// cloneSnapshot copies qs's columns into fresh arrays.
func cloneSnapshot(qs *core.QuerySnapshot) *core.QuerySnapshot {
	return &core.QuerySnapshot{N: qs.N, RStrict: qs.RStrict,
		QVals: slices.Clone(qs.QVals), QKeys: slices.Clone(qs.QKeys),
		RVals: slices.Clone(qs.RVals), RRanks: slices.Clone(qs.RRanks)}
}

// TestCachedCyclesKLL drives invalidate/rebuild cycles over KLL, whose
// snapshots share their rank columns with the quantile columns. After
// every write, the recycling Cached view and the epoch Cache must answer
// as a fresh snapshot, which must answer as the live sketch; and a
// snapshot the Cache published before the write must be left exactly as
// it was, since lock-free readers may still hold it.
func TestCachedCyclesKLL(t *testing.T) {
	s := kll.New(0.005, 3)
	c := NewCached(s, 0.01)
	var cache Cache
	data := streamgen.Generate(streamgen.Zipf{S: 1.1, Bits: 20, Seed: 4}, 1<<16)
	phis := equivtest.Phis()
	var published, kept *core.QuerySnapshot
	off := 0
	for cycle, size := range []int{1, 2, 7, 100, 1000, 3000, 5, 20000, 1, 9000, 12000, 4000, 9} {
		cache.Invalidate()
		for _, x := range data[off : off+size] {
			s.Update(x)
		}
		off += size
		c.Invalidate()

		fresh := core.BuildQuerySnapshot(s)
		equivtest.Check(t, s, fresh)
		if got, want := c.QuantileBatch(phis), fresh.QuantileBatch(phis); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Cached quantiles differ from a fresh snapshot", cycle)
		}
		for _, x := range equivtest.RankProbes(fresh) {
			if got, want := c.Rank(x), fresh.Rank(x); got != want {
				t.Fatalf("cycle %d: Cached Rank(%d) = %d, fresh snapshot %d", cycle, x, got, want)
			}
		}
		if cache.Current() != nil {
			t.Fatalf("cycle %d: Cache served a snapshot across a write", cycle)
		}
		next := cache.Rebuild(s)
		if got, want := next.QuantileBatch(phis), fresh.QuantileBatch(phis); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Cache snapshot differs from a fresh one", cycle)
		}
		if published != nil && (published.N != kept.N || !slices.Equal(published.QVals, kept.QVals) ||
			!slices.Equal(published.QKeys, kept.QKeys) || !slices.Equal(published.RVals, kept.RVals) ||
			!slices.Equal(published.RRanks, kept.RRanks)) {
			t.Fatalf("cycle %d: a retired published snapshot changed", cycle)
		}
		published, kept = next, cloneSnapshot(next)
	}
}
