// Package kll implements the KLL sketch (Karnin, Lang, Liberty: "Optimal
// quantile approximation in streams", FOCS 2016) — the successor of the
// buffer-hierarchy line this paper's Random algorithm belongs to, and the
// design that its experimental findings fed into (see the study's
// influence on later sketch work, e.g. Apache DataSketches).
//
// Where Random keeps b equal-sized buffers, KLL lets capacities decay
// geometrically with height: level h (0 = rawest) holds up to
// k·c^(depth−1−h) elements of weight 2^h, for a decay c ∈ (0.5, 1).
// A full level is "compacted": its elements are sorted and either the
// odd or the even ranked half survives to the level above, with a fair
// coin — the same unbiased halving as Random's merge, applied to a
// whole level. Total space is k/(1−c) + O(log(n/k)) elements — the
// log^0.5(1/ε) factor of Random drops away — and all quantiles are
// ε-accurate with constant probability for k = O((1/ε)·√log(1/ε))…
// in practice k ≈ 4/ε matches the all-quantiles evaluation standard of
// this suite while retaining ~3× fewer elements than Random.
//
// The implementation is single-threaded, deterministic per seed, and
// mergeable (the property the DataSketches ecosystem builds on).
package kll

import (
	"fmt"
	"math"
	"slices"

	"streamquantiles/internal/core"
	"streamquantiles/internal/xhash"
)

// decay is the capacity decay rate c; 2/3 is the value recommended by
// the KLL authors.
const decay = 2.0 / 3.0

// minLevelCap is the smallest capacity of any level.
const minLevelCap = 8

// Sketch is a KLL quantile sketch.
type Sketch struct {
	eps float64
	k   int // capacity of the highest (most recent) level
	n   int64

	// Every retained element lives in one flat arena, highest level
	// first so that level 0 sits at the end and per-item ingestion is a
	// plain append. bounds[h] is the end offset of level h
	// (bounds[depth] = 0, bounds[0] = len(arena)); level h — elements of
	// weight 2^h, sorted lazily, on compaction — occupies
	// arena[bounds[h+1]:bounds[h]].
	arena  []uint64
	bounds []int
	rng    *xhash.SplitMix64
}

// New returns an empty KLL sketch with error parameter eps, seeded
// deterministically.
func New(eps float64, seed uint64) *Sketch {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("kll: error parameter %v outside (0, 1)", eps))
	}
	// k = 4/ε makes every quantile simultaneously ε-accurate with high
	// probability (the per-query analysis needs ~1.5/ε; the union bound
	// over the 1/ε evaluation grid costs the rest), matching the
	// evaluation standard used for the paper's algorithms.
	k := int(math.Ceil(4 / eps))
	if k < 2*minLevelCap {
		k = 2 * minLevelCap
	}
	return &Sketch{
		eps:    eps,
		k:      k,
		arena:  make([]uint64, 0, k),
		bounds: []int{0, 0},
		rng:    xhash.NewSplitMix64(seed),
	}
}

// Eps returns the error parameter.
func (s *Sketch) Eps() float64 { return s.eps }

// K returns the top-level capacity parameter.
func (s *Sketch) K() int { return s.k }

// Count implements core.Summary.
func (s *Sketch) Count() int64 { return s.n }

// Depth returns the number of levels currently in use.
func (s *Sketch) Depth() int { return len(s.bounds) - 1 }

// level returns the elements of weight 2^h as a view into the arena.
func (s *Sketch) level(h int) []uint64 {
	return s.arena[s.bounds[h+1]:s.bounds[h]]
}

// levelLen returns len(level(h)) without materializing the view.
func (s *Sketch) levelLen(h int) int { return s.bounds[h] - s.bounds[h+1] }

// capacity returns the allowed size of level h given the current depth:
// the top level gets k, and capacities decay by c per level downward.
func (s *Sketch) capacity(h int) int {
	depth := s.Depth()
	c := float64(s.k) * math.Pow(decay, float64(depth-1-h))
	if c < minLevelCap {
		return minLevelCap
	}
	return int(math.Ceil(c))
}

// Update implements core.CashRegister.
func (s *Sketch) Update(x uint64) {
	s.n++
	s.arena = append(s.arena, x)
	s.bounds[0] = len(s.arena)
	if s.levelLen(0) >= s.capacity(0) {
		s.compress()
	}
}

// compress restores all level capacities by compacting the lowest
// over-full level, cascading upward as needed. The capacity check runs
// before the depth can grow, so the compaction (and coin-flip) schedule
// is identical to the per-level-slice formulation.
func (s *Sketch) compress() {
	for h := 0; h < s.Depth(); h++ {
		if s.levelLen(h) < s.capacity(h) {
			continue
		}
		if h+1 == s.Depth() {
			// A new, empty top level occupies zero words at the front of
			// the arena; no data moves.
			s.bounds = append(s.bounds, 0)
		}
		s.compact(h)
	}
}

// compact halves level h into level h+1: sort, then keep either the odd
// or the even ranked elements with equal probability. The survivors'
// weight doubles implicitly (they move one level up). An odd leftover
// element stays at level h, preserving total weight exactly.
//
// In the flat arena the survivors are compacted to the front of level
// h's window (forward-safe: survivor i comes from index 2i+off ≥ i) and
// donated to level h+1 by advancing the shared boundary — level h+1
// ends exactly where level h begins, so this appends them in ascending
// order without moving a single element of the levels above. Only the
// levels below h slide left to close the gap.
func (s *Sketch) compact(h int) {
	lvl := s.level(h)
	slices.Sort(lvl)
	keepOdd := s.rng.Bool()

	pairs := len(lvl) / 2
	off := 0
	if keepOdd {
		off = 1
	}
	for i := 0; i < pairs; i++ {
		lvl[i] = lvl[2*i+off]
	}
	if len(lvl)%2 == 1 {
		// Keep the last element at this level so weight is conserved.
		lvl[pairs] = lvl[len(lvl)-1]
	}
	s.bounds[h+1] += pairs
	copy(s.arena[s.bounds[h]-pairs:], s.arena[s.bounds[h]:s.bounds[0]])
	for j := h; j >= 0; j-- {
		s.bounds[j] -= pairs
	}
	s.arena = s.arena[:s.bounds[0]]
}

// ListRuns implements core.RunLister: each level is one run of weight
// 2^h. Levels are sorted lazily, so the merge sorts copies of the ones
// that are not sorted yet; the arena itself is never reordered by a
// query (queries run concurrently, and the level order is encoded).
func (s *Sketch) ListRuns(rs *core.Runs) {
	for h := 0; h < s.Depth(); h++ {
		rs.AddRun(s.level(h), int64(1)<<h)
	}
}

// Rank implements core.Summary.
func (s *Sketch) Rank(x uint64) int64 { return core.RunsRank(s, x) }

// Quantile implements core.Summary.
func (s *Sketch) Quantile(phi float64) uint64 {
	if s.n == 0 {
		panic(core.ErrEmpty)
	}
	return core.RunsQuantile(s, phi)
}

// QuantileBatch implements core.QuantileBatcher.
func (s *Sketch) QuantileBatch(phis []float64) []uint64 {
	if s.n == 0 {
		panic(core.ErrEmpty)
	}
	return core.RunsQuantiles(s, phis)
}

// RankBatch implements core.QuantileBatcher.
func (s *Sketch) RankBatch(xs []uint64) []int64 { return core.RunsRanks(s, xs) }

// AppendQuerySnapshot implements core.Snapshotter.
func (s *Sketch) AppendQuerySnapshot(qs *core.QuerySnapshot) { core.AppendRunsSnapshot(qs, s) }

// checkCompatible validates a merge partner: both sketches must have
// been built with bit-identical eps (exact comparison is the intent, so
// it goes through Float64bits).
func (s *Sketch) checkCompatible(other *Sketch) {
	if math.Float64bits(other.eps) != math.Float64bits(s.eps) {
		panic("kll: merging sketches with different eps")
	}
}

// Merge folds other into s: levels concatenate weight-for-weight and
// over-full levels compact. Both sketches must share eps. The merged
// arena is rebuilt top level first, each level holding s's elements
// followed by other's — the concatenation order of the slice
// formulation, so restore-and-merge stays deterministic.
func (s *Sketch) Merge(other *Sketch) {
	s.checkCompatible(other)
	s.mergeLevels(other)
}

// mergeLevels is Merge without the compatibility check: the level
// concatenation itself is budget-agnostic (RetargetMerge reuses it
// after widening eps).
func (s *Sketch) mergeLevels(other *Sketch) {
	depth := s.Depth()
	if d := other.Depth(); d > depth {
		depth = d
	}
	merged := make([]uint64, 0, len(s.arena)+len(other.arena))
	nb := make([]int, depth+1)
	for h := depth - 1; h >= 0; h-- {
		if h < s.Depth() {
			merged = append(merged, s.level(h)...)
		}
		if h < other.Depth() {
			merged = append(merged, other.level(h)...)
		}
		nb[h] = len(merged)
	}
	s.arena, s.bounds = merged, nb
	s.n += other.n
	s.compress()
}

// SpaceBytes implements core.Summary: the arena at capacity plus the
// level bounds and scalars.
func (s *Sketch) SpaceBytes() int64 {
	words := int64(cap(s.arena)) + int64(len(s.bounds)) + 8
	return words * core.WordBytes
}

// RetainedElements reports the total number of stored elements — the
// quantity KLL minimizes. Test/observability hook.
func (s *Sketch) RetainedElements() int { return len(s.arena) }
