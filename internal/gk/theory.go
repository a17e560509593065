package gk

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/skiplist"
)

// tnode is the per-tuple state of the Theory variant.
type tnode struct {
	g, del int64
}

// Theory is the original Greenwald–Khanna algorithm [GK01]: insertions
// use Δ = ⌊2εn⌋ − 1 (Δ = 0 at the extremes), and a COMPRESS pass runs
// once every ⌊1/(2ε)⌋ insertions: sweeping right to left, tuple t_i and
// its band-tree descendants merge into t_{i+1} when
// band(Δ_i) ≤ band(Δ_{i+1}) and g*_i + g_{i+1} + Δ_{i+1} < ⌊2εn⌋, where
// g*_i is the combined weight of t_i's subtree (the maximal run of
// tuples to its left with strictly smaller bands — GK01's tree never
// needs materializing because subtrees are contiguous). This is the
// variant with the proven (11/2ε)·log(2εn) space bound.
type Theory struct {
	eps           float64
	n             int64
	list          *skiplist.List[uint64, *tnode]
	sinceCmp      int
	compressEvery int

	// Batch workspace (see batch.go), reused across UpdateBatch calls.
	// The skiplist arena is Reset at each rebuild, once the previous
	// list (whose nodes it backs) is dead.
	batchBuf     []uint64
	tupleScratch tcols
	mergeScratch tcols
	nodePool     []tnode
	arena        skiplist.Arena[uint64, *tnode]
}

// newTheoryIndexArena starts a sorted skiplist build with the variant's
// tower seed, salted so successive batch rebuilds draw fresh towers,
// with nodes drawn from the summary-owned arena.
func newTheoryIndexArena(salt uint64, ar *skiplist.Arena[uint64, *tnode]) *skiplist.Builder[uint64, *tnode] {
	return skiplist.NewBuilderArena[uint64, *tnode](0x7468656f7279^salt, ar)
}

// NewTheory returns an empty GKTheory summary with error parameter eps.
func NewTheory(eps float64) *Theory {
	checkEps(eps)
	every := int(1 / (2 * eps))
	if every < 1 {
		every = 1
	}
	return &Theory{
		eps:           eps,
		list:          skiplist.New[uint64, *tnode](0x7468656f7279),
		compressEvery: every,
	}
}

// Eps returns the summary's error parameter.
func (t *Theory) Eps() float64 { return t.eps }

// Count implements core.Summary.
func (t *Theory) Count() int64 { return t.n }

// TupleCount reports |L|.
func (t *Theory) TupleCount() int { return t.list.Len() }

// Update implements core.CashRegister.
func (t *Theory) Update(x uint64) {
	t.n++
	succ := t.list.Successor(x)
	del := threshold(t.eps, t.n) - 1
	if del < 0 {
		del = 0
	}
	if succ == nil {
		// New maximum: its rank is known exactly.
		del = 0
	} else if t.list.First() == succ && t.list.First().Key > x {
		// New minimum: rank 0, known exactly.
		del = 0
	}
	t.list.Insert(x, &tnode{g: 1, del: del})

	t.sinceCmp++
	if t.sinceCmp >= t.compressEvery {
		t.compress()
		t.sinceCmp = 0
	}
}

// compress performs GK01's COMPRESS: one right-to-left sweep merging
// whole band-tree subtrees. The tuple list is materialized into a slice
// (COMPRESS is already an O(|L|) pass), merged in place, and the skip
// list rebuilt from the survivors — simpler and more cache-friendly than
// in-place list surgery at the same asymptotic cost.
func (t *Theory) compress() {
	p := threshold(t.eps, t.n)
	if p <= 0 || t.list.Len() < 3 {
		return
	}
	type entry struct {
		v    uint64
		g    int64
		del  int64
		band int
		dead bool
	}
	tuples := make([]entry, 0, t.list.Len())
	for n := t.list.First(); n != nil; n = n.Next() {
		tuples = append(tuples, entry{
			v: n.Key, g: n.Value.g, del: n.Value.del,
			band: band(n.Value.del, p),
		})
	}

	merged := false
	rn := len(tuples) - 1 // surviving right neighbor of the tuple at i
	i := len(tuples) - 2
	for i >= 1 { // tuple 0 is the exact minimum, never merged
		// Subtree of t_i: the maximal run to its left with smaller bands.
		gstar := tuples[i].g
		j := i - 1
		for j >= 1 && tuples[j].band < tuples[i].band {
			gstar += tuples[j].g
			j--
		}
		if tuples[i].band <= tuples[rn].band &&
			gstar+tuples[rn].g+tuples[rn].del < p {
			// Merge t_i and its whole subtree into the right neighbor.
			tuples[rn].g += gstar
			for k := j + 1; k <= i; k++ {
				tuples[k].dead = true
			}
			merged = true
			i = j // rn unchanged: it absorbed everything in between
		} else {
			// No merge: t_i survives and becomes the right neighbor; its
			// descendants are considered individually next.
			rn = i
			i--
		}
	}
	if !merged {
		return
	}

	rebuilt := skiplist.New[uint64, *tnode](0x7468656f7279 ^ uint64(t.n))
	for _, e := range tuples {
		if !e.dead {
			rebuilt.Insert(e.v, &tnode{g: e.g, del: e.del})
		}
	}
	t.list = rebuilt
}

// Quantile implements core.Summary.
func (t *Theory) Quantile(phi float64) uint64 {
	return queryQuantile(t.seq, t.n, phi)
}

// QuantileBatch implements core.QuantileBatcher.
func (t *Theory) QuantileBatch(phis []float64) []uint64 {
	return queryQuantiles(t.seq, t.n, phis)
}

// RankBatch implements core.QuantileBatcher.
func (t *Theory) RankBatch(xs []uint64) []int64 {
	return queryRanks(t.seq, xs)
}

// AppendQuerySnapshot implements core.Snapshotter.
func (t *Theory) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	appendQuerySnapshot(t.seq, t.n, qs)
}

// ListRuns implements core.RunLister: the tuples as one weighted run
// (see listRuns).
func (t *Theory) ListRuns(rs *core.Runs) { listRuns(t.seq, t.list.Len(), rs) }

// Rank implements core.Summary.
func (t *Theory) Rank(x uint64) int64 {
	return queryRank(t.seq, x)
}

// SpaceBytes implements core.Summary: 3 words per tuple, skiplist index
// pointers, one pointer word per node→tuple reference, scalars.
func (t *Theory) SpaceBytes() int64 {
	words := int64(t.list.Len())*tupleWords +
		t.list.PointerWords() +
		int64(t.list.Len()) +
		4
	return words * core.WordBytes
}

func (t *Theory) seq(yield func(tp tuple) bool) {
	for n := t.list.First(); n != nil; n = n.Next() {
		if !yield(tuple{v: n.Key, g: n.Value.g, del: n.Value.del}) {
			return
		}
	}
}
