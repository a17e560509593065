package core

import (
	"slices"
	"sync"
)

// Sorted runs. The sampling summaries (Random, MRL99, KLL) retain their
// samples as a handful of value-sorted stretches that share one weight
// each: a full buffer, a compacted level. Their queries need the union
// in value order, and a k-way merge over the runs produces it in
// O(s·log r) for s samples in r runs, where a global re-sort would pay
// O(s·log s) and throw away the order the summary already maintains.
//
// A query never reorders summary state: queries run concurrently under
// read locks, and KLL's level order is part of its encoding. A run that
// is not sorted (a partially filled buffer, a level holding two
// concatenated halves) is sorted as a copy in the per-call scratch.

// RunLister is implemented by summaries whose retained samples form
// value-sorted runs of equal weight.
type RunLister interface {
	// ListRuns hands every retained sample to rs, one AddRun per buffer
	// or level.
	ListRuns(rs *Runs)
}

// run is one listed stretch of samples. A run that had to be sorted as
// a copy lives in Runs.copies[lo:lo+n]; its vals are resolved at merge
// time, once the copy buffer has stopped growing.
type run struct {
	vals   []uint64
	w      int64
	copied bool
	lo, n  int
}

// head is a merge heap entry: the current first value of run r.
type head struct {
	v uint64
	r int
}

// Runs is the per-call scratch of a run merge: the listed runs, sorted
// copies of the unsorted ones, the merge heap and the merged output.
// Values are recycled through a pool, so steady-state queries allocate
// nothing for the merge.
type Runs struct {
	runs   []run
	copies []uint64
	heads  []head
	merged []WeightedValue
}

var runsPool = sync.Pool{New: func() any { return new(Runs) }}

// AddRun lists vals as a run of samples of weight w each. vals is never
// modified: when it is not sorted, a sorted copy is merged instead.
func (rs *Runs) AddRun(vals []uint64, w int64) {
	if len(vals) == 0 {
		return
	}
	if slices.IsSorted(vals) {
		rs.runs = append(rs.runs, run{vals: vals, w: w})
		return
	}
	lo := len(rs.copies)
	rs.copies = append(rs.copies, vals...)
	slices.Sort(rs.copies[lo:])
	rs.runs = append(rs.runs, run{w: w, copied: true, lo: lo, n: len(vals)})
}

// merge lists l's runs and k-way merges them into value order through a
// binary min-heap of the runs' first values. Equal values from
// different runs may come out in any order, which no query can observe
// (ranks count strictly smaller values, quantiles report the value).
func (rs *Runs) merge(l RunLister) []WeightedValue {
	l.ListRuns(rs)
	total := 0
	h := rs.heads[:0]
	for i := range rs.runs {
		r := &rs.runs[i]
		if r.copied {
			r.vals = rs.copies[r.lo : r.lo+r.n]
		}
		total += len(r.vals)
		h = append(h, head{v: r.vals[0], r: i})
	}
	out := slices.Grow(rs.merged[:0], total)
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftHead(h, i)
	}
	for len(h) > 1 {
		top := &h[0]
		r := &rs.runs[top.r]
		out = append(out, WeightedValue{V: top.v, W: r.w})
		if r.vals = r.vals[1:]; len(r.vals) > 0 {
			top.v = r.vals[0]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftHead(h, 0)
	}
	if len(h) == 1 {
		r := &rs.runs[h[0].r]
		for _, v := range r.vals {
			out = append(out, WeightedValue{V: v, W: r.w})
		}
	}
	rs.heads = h
	rs.merged = out
	return out
}

// siftHead restores the heap order below index i.
func siftHead(h []head, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].v < h[m].v {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].v < h[m].v {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// reset empties the scratch for the pool, dropping its references to
// summary state.
func (rs *Runs) reset() {
	clear(rs.runs)
	rs.runs = rs.runs[:0]
	rs.copies = rs.copies[:0]
}

// RunsRank is WeightedRank over l's merged runs.
func RunsRank(l RunLister, x uint64) int64 {
	rs := runsPool.Get().(*Runs)
	r := WeightedRank(rs.merge(l), x)
	rs.reset()
	runsPool.Put(rs)
	return r
}

// RunsQuantile is WeightedQuantile over l's merged runs.
func RunsQuantile(l RunLister, phi float64) uint64 {
	rs := runsPool.Get().(*Runs)
	q := WeightedQuantile(rs.merge(l), phi)
	rs.reset()
	runsPool.Put(rs)
	return q
}

// RunsQuantiles is WeightedQuantiles over l's merged runs.
func RunsQuantiles(l RunLister, phis []float64) []uint64 {
	rs := runsPool.Get().(*Runs)
	out := WeightedQuantiles(rs.merge(l), phis)
	rs.reset()
	runsPool.Put(rs)
	return out
}

// RunsRanks is WeightedRanks over l's merged runs.
func RunsRanks(l RunLister, xs []uint64) []int64 {
	rs := runsPool.Get().(*Runs)
	out := WeightedRanks(rs.merge(l), xs)
	rs.reset()
	runsPool.Put(rs)
	return out
}

// AppendRunsSnapshot is AppendWeightedSnapshot over l's merged runs.
func AppendRunsSnapshot(qs *QuerySnapshot, l RunLister) {
	rs := runsPool.Get().(*Runs)
	AppendWeightedSnapshot(qs, rs.merge(l))
	rs.reset()
	runsPool.Put(rs)
}
