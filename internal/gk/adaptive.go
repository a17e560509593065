package gk

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/skiplist"
)

// anode is the per-tuple state of the Adaptive variant: the (g, Δ) pair,
// a back-reference to the skiplist node that stores the element, a cached
// removal cost, and the tuple's position in the removable-cost heap.
type anode struct {
	g, del int64
	node   *skiplist.Node[uint64, *anode]
	cost   int64 // g_i + g_{i+1} + Δ_{i+1}, valid while hidx >= 0
	hidx   int   // index in the heap, or -1 when the tuple has no successor
}

// Adaptive is the GKAdaptive variant of the Greenwald–Khanna summary
// (paper §2.1.1): every insertion uses Δ = g_i + Δ_i − 1 from its
// successor, and afterwards at most one removable tuple is deleted — the
// new tuple itself if removable, otherwise the globally cheapest tuple
// found at the top of a min-heap ordered by g_i + g_{i+1} + Δ_{i+1}.
//
// COMPRESS is never called, so the O((1/ε)·log(εn)) space bound of the
// original algorithm is not guaranteed, but empirically this variant is
// the most space-efficient deterministic summary in the study.
type Adaptive struct {
	eps  float64
	n    int64
	list *skiplist.List[uint64, *anode]
	heap []*anode

	// Batch workspace (see batch.go), reused across UpdateBatch calls.
	// The skiplist arena is Reset at each rebuild, once the previous
	// list (whose nodes it backs) is dead.
	batchBuf     []uint64
	tupleScratch tcols
	mergeScratch tcols
	nodePool     []anode
	arena        skiplist.Arena[uint64, *anode]
}

// newAdaptiveIndexArena starts a sorted skiplist build with the
// variant's tower seed, salted so successive batch rebuilds draw fresh
// towers, with nodes drawn from the summary-owned arena.
func newAdaptiveIndexArena(salt uint64, ar *skiplist.Arena[uint64, *anode]) *skiplist.Builder[uint64, *anode] {
	return skiplist.NewBuilderArena[uint64, *anode](0x6b61646170746976^salt, ar)
}

// NewAdaptive returns an empty GKAdaptive summary with error parameter
// eps in (0, 1).
func NewAdaptive(eps float64) *Adaptive {
	checkEps(eps)
	return &Adaptive{
		eps:  eps,
		list: skiplist.New[uint64, *anode](0x6b61646170746976), // deterministic tower seed
	}
}

// Eps returns the summary's error parameter.
func (a *Adaptive) Eps() float64 { return a.eps }

// Count implements core.Summary.
func (a *Adaptive) Count() int64 { return a.n }

// TupleCount reports |L|, the number of stored tuples.
func (a *Adaptive) TupleCount() int { return a.list.Len() }

// Update implements core.CashRegister.
func (a *Adaptive) Update(x uint64) {
	a.n++
	succ := a.list.Successor(x)
	t := &anode{g: 1, hidx: -1}
	if succ != nil {
		t.del = succ.Value.g + succ.Value.del - 1
	}
	t.node = a.list.Insert(x, t)
	prev := a.list.Prev(t.node)
	if prev == nil {
		// New minimum: its rank is known exactly (GK01's boundary rule —
		// keeping the extremes exact is what makes φ→0 and φ→1 queries
		// ε-accurate rather than 2ε).
		t.del = 0
	}

	// Wire the heap: the new tuple gains succ as successor; the previous
	// tuple's successor becomes the new tuple; a tuple that was first and
	// no longer is becomes removal-eligible.
	if succ != nil {
		a.heapPush(t)
	}
	if prev != nil {
		a.heapRefresh(prev.Value)
	} else if succ != nil {
		a.heapRefresh(succ.Value) // old first gained a predecessor
	}

	p := threshold(a.eps, a.n)
	// First try to drop the just-inserted tuple, then the global minimum.
	if t.hidx >= 0 && t.cost <= p {
		a.remove(t)
		return
	}
	if len(a.heap) > 0 && a.heap[0].cost <= p {
		a.remove(a.heap[0])
	}
}

// remove merges tuple t into its successor and repairs the heap for every
// tuple whose cost depends on the change.
func (a *Adaptive) remove(t *anode) {
	succNode := t.node.Next()
	if succNode == nil {
		//lint:ignore SQ003 corruption guard: the heap never holds the last tuple, so this is unreachable
		panic("gk: removing the last tuple")
	}
	succ := succNode.Value
	prev := a.list.Prev(t.node)

	succ.g += t.g
	a.heapDelete(t)
	a.list.Remove(t.node)
	t.node = nil

	// succ's own cost includes its g; prev's successor and its (g, Δ) changed.
	a.heapRefresh(succ)
	if prev != nil {
		a.heapRefresh(prev.Value)
	}
}

// Quantile implements core.Summary.
func (a *Adaptive) Quantile(phi float64) uint64 {
	return queryQuantile(a.seq, a.n, phi)
}

// QuantileBatch implements core.QuantileBatcher.
func (a *Adaptive) QuantileBatch(phis []float64) []uint64 {
	return queryQuantiles(a.seq, a.n, phis)
}

// RankBatch implements core.QuantileBatcher.
func (a *Adaptive) RankBatch(xs []uint64) []int64 {
	return queryRanks(a.seq, xs)
}

// AppendQuerySnapshot implements core.Snapshotter.
func (a *Adaptive) AppendQuerySnapshot(qs *core.QuerySnapshot) {
	appendQuerySnapshot(a.seq, a.n, qs)
}

// ListRuns implements core.RunLister: the tuples as one weighted run
// (see listRuns).
func (a *Adaptive) ListRuns(rs *core.Runs) { listRuns(a.seq, a.list.Len(), rs) }

// Rank implements core.Summary.
func (a *Adaptive) Rank(x uint64) int64 {
	return queryRank(a.seq, x)
}

// SpaceBytes implements core.Summary: 3 words per tuple, the skiplist
// index pointers, one pointer word per heap slot, plus the scalar state.
func (a *Adaptive) SpaceBytes() int64 {
	words := int64(a.list.Len())*tupleWords +
		a.list.PointerWords() +
		int64(len(a.heap)) +
		int64(a.list.Len()) + // back-pointers node↔tuple
		4 // eps, n
	return words * core.WordBytes
}

// seq yields the tuples in element order.
func (a *Adaptive) seq(yield func(t tuple) bool) {
	for n := a.list.First(); n != nil; n = n.Next() {
		if !yield(tuple{v: n.Key, g: n.Value.g, del: n.Value.del}) {
			return
		}
	}
}

// heap maintenance: a classic array-backed min-heap over cost, with
// per-node index tracking so neighbour updates can re-sift in place.

// computeCost returns the removal cost of t, or false when t must not
// be removed: the last tuple (no successor) and the first tuple (the
// exact minimum) are permanent.
func (a *Adaptive) computeCost(t *anode) (int64, bool) {
	succ := t.node.Next()
	if succ == nil || a.list.Prev(t.node) == nil {
		return 0, false
	}
	return t.g + succ.Value.g + succ.Value.del, true
}

func (a *Adaptive) heapPush(t *anode) {
	cost, ok := a.computeCost(t)
	if !ok {
		return
	}
	t.cost = cost
	t.hidx = len(a.heap)
	a.heap = append(a.heap, t)
	a.siftUp(t.hidx)
}

// heapRefresh recomputes t's cost and restores heap order, handling the
// transitions into and out of "last tuple" (no successor) status.
func (a *Adaptive) heapRefresh(t *anode) {
	cost, ok := a.computeCost(t)
	switch {
	case !ok && t.hidx >= 0:
		a.heapDelete(t)
	case ok && t.hidx < 0:
		t.cost = cost
		t.hidx = len(a.heap)
		a.heap = append(a.heap, t)
		a.siftUp(t.hidx)
	case ok:
		t.cost = cost
		if !a.siftUp(t.hidx) {
			a.siftDown(t.hidx)
		}
	}
}

func (a *Adaptive) heapDelete(t *anode) {
	i := t.hidx
	if i < 0 {
		return
	}
	last := len(a.heap) - 1
	a.swap(i, last)
	a.heap = a.heap[:last]
	t.hidx = -1
	if i < last {
		if !a.siftUp(i) {
			a.siftDown(i)
		}
	}
}

func (a *Adaptive) swap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].hidx = i
	a.heap[j].hidx = j
}

func (a *Adaptive) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if a.heap[parent].cost <= a.heap[i].cost {
			break
		}
		a.swap(parent, i)
		i = parent
		moved = true
	}
	return moved
}

func (a *Adaptive) siftDown(i int) {
	n := len(a.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && a.heap[left].cost < a.heap[smallest].cost {
			smallest = left
		}
		if right < n && a.heap[right].cost < a.heap[smallest].cost {
			smallest = right
		}
		if smallest == i {
			return
		}
		a.swap(i, smallest)
		i = smallest
	}
}

// checkHeap validates heap order and index integrity; test hook.
func (a *Adaptive) checkHeap() bool {
	return a.heapInvariants() == nil
}
