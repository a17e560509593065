package snapshot

import (
	"testing"

	"streamquantiles/internal/core"
)

// exactList is a toy summary over sorted distinct unit-weight values
// with exact answers, implementing both core.Summary and
// core.Snapshotter so every cache path can be pinned against ground
// truth. builds counts snapshot materializations.
type exactList struct {
	vals   []uint64
	builds int
}

func (e *exactList) Count() int64      { return int64(len(e.vals)) }
func (e *exactList) SpaceBytes() int64 { return int64(len(e.vals)) * 8 }

func (e *exactList) Rank(x uint64) int64 {
	var r int64
	for _, v := range e.vals {
		if v < x {
			r++
		}
	}
	return r
}

func (e *exactList) Quantile(phi float64) uint64 {
	core.CheckPhi(phi)
	if len(e.vals) == 0 {
		panic(core.ErrEmpty)
	}
	return e.vals[core.TargetRank(phi, int64(len(e.vals)))]
}

func (e *exactList) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	e.builds++
	qs.Reset() // the Snapshotter contract: overwrite, reusing capacity
	n := int64(len(e.vals))
	qs.N = n
	for i, v := range e.vals {
		// Quantile rule: first QKeys[i] > target, so key i+1 answers
		// exactly target rank i. Rank rule (RStrict): largest RVals[i] < x
		// carries rank i+1, the count of values strictly below x.
		qs.QVals = append(qs.QVals, v)
		qs.QKeys = append(qs.QKeys, int64(i)+1)
		qs.RVals = append(qs.RVals, v)
		qs.RRanks = append(qs.RRanks, int64(i)+1)
	}
	qs.RStrict = true
}

func ramp(n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i) * 10
	}
	return vals
}

// gridOnly hides the Snapshotter method so NewCached takes the grid
// path.
type gridOnly struct{ *exactList }

func (g gridOnly) AppendQuerySnapshot() {} // different signature: not a core.Snapshotter

// TestBuildGridRankError pins the grid fallback's documented bound:
// answers carry at most gridEps·n extra rank error, and the Cached
// wrapper reports exactness correctly for both kinds of summary.
func TestBuildGridRankError(t *testing.T) {
	s := &exactList{vals: ramp(2000)}
	n := float64(len(s.vals))
	gridEps := 0.01
	slack := int64(gridEps*n) + 1

	exact := NewCached(s, gridEps)
	if !exact.Exact() {
		t.Fatal("Snapshotter summary must cache exactly")
	}
	g := gridOnly{s}
	if _, ok := any(g).(core.Snapshotter); ok {
		t.Fatal("gridOnly must not implement core.Snapshotter")
	}
	grid := NewCached(g, gridEps)
	if grid.Exact() {
		t.Fatal("non-Snapshotter summary cannot cache exactly")
	}
	for _, phi := range core.EvenPhis(0.05) {
		want := s.Quantile(phi)
		if got := exact.Quantile(phi); got != want {
			t.Errorf("exact cached Quantile(%v) = %d, want %d", phi, got, want)
		}
		got := grid.Quantile(phi)
		// Rank distance between the grid answer and the exact answer.
		if d := s.Rank(got) - s.Rank(want); d > slack || d < -slack {
			t.Errorf("grid Quantile(%v) = %d is %d ranks from exact %d, want within %d", phi, got, d, want, slack)
		}
	}
	for x := uint64(0); x < 20000; x += 97 {
		want := s.Rank(x)
		if got := exact.Rank(x); got != want {
			t.Errorf("exact cached Rank(%d) = %d, want %d", x, got, want)
		}
		if got := grid.Rank(x); got-want > slack || want-got > slack {
			t.Errorf("grid Rank(%d) = %d, exact %d: off by more than %d", x, got, want, slack)
		}
	}
}

// BenchmarkCachedRebuild measures the single-goroutine Cached wrapper's
// invalidate/rebuild cycle, which rebuilds into the same QuerySnapshot:
// after warm-up the columns are at capacity and the steady state is
// allocation-free.
func BenchmarkCachedRebuild(b *testing.B) {
	const n = 1 << 14
	s := &exactList{vals: ramp(n)}
	c := NewCached(s, 0.01)
	c.Quantile(0.5) // warm the snapshot columns to capacity
	b.SetBytes(n * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invalidate()
		c.Quantile(0.5)
	}
}

// TestCachedInvalidate pins the manual invalidation contract: queries
// reuse one snapshot until Invalidate, then rebuild against the
// summary's current state.
func TestCachedInvalidate(t *testing.T) {
	s := &exactList{vals: ramp(100)}
	c := NewCached(s, 0.01)
	before := c.Quantile(0.5)
	if s.builds != 1 {
		t.Fatalf("first query built %d snapshots, want 1", s.builds)
	}
	c.Quantile(0.9)
	c.Rank(500)
	c.QuantileBatch(core.EvenPhis(0.25))
	if s.builds != 1 {
		t.Fatalf("quiet queries rebuilt: %d builds", s.builds)
	}
	s.vals = ramp(1000) // mutate, then signal
	if got := c.Quantile(0.5); got != before {
		t.Fatalf("pre-invalidate query saw new state: %d", got)
	}
	c.Invalidate()
	if got, want := c.Quantile(0.5), s.Quantile(0.5); got != want {
		t.Fatalf("post-invalidate Quantile(0.5) = %d, want %d", got, want)
	}
	if s.builds != 2 {
		t.Fatalf("invalidate+query built %d snapshots total, want 2", s.builds)
	}
	if got, want := c.Count(), int64(1000); got != want {
		t.Fatalf("Count() = %d must read the live summary, want %d", got, want)
	}
}
