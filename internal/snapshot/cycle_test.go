package snapshot

import (
	"slices"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/equivtest"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/streamgen"
)

// TestCachedCyclesKLL drives invalidate/rebuild cycles over KLL, whose
// snapshots share their rank columns with the quantile columns. After
// every write, the recycling Cached view must answer as a fresh
// snapshot, which must answer as the live sketch.
func TestCachedCyclesKLL(t *testing.T) {
	s := kll.New(0.005, 3)
	c := NewCached(s, 0.01)
	data := streamgen.Generate(streamgen.Zipf{S: 1.1, Bits: 20, Seed: 4}, 1<<16)
	phis := equivtest.Phis()
	off := 0
	for cycle, size := range []int{1, 2, 7, 100, 1000, 3000, 5, 20000, 1, 9000, 12000, 4000, 9} {
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
	}
}
