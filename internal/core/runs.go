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
// The merge is a tree of two-way merges (see MergeSegments): each pass
// streams two sorted column pairs into one through a branch-free loop,
// so random interleavings cost no mispredicted branches, and the last
// pass writes straight into the caller's output columns.
//
// A query never reorders summary state: queries are pure reads, which
// callers sharing a summary between readers rely on, and KLL's level
// order is part of its encoding. A run that is not sorted (a partially
// filled buffer, a level holding two concatenated halves) is sorted as
// a copy in the merge scratch. The same merge folds the runs of several
// summaries (FoldRuns): the sharded containers combine their shards
// with it.

// RunLister is implemented by summaries whose retained samples form
// value-sorted runs of equal weight.
type RunLister interface {
	// ListRuns hands every retained sample to rs, one AddRun per buffer
	// or level.
	ListRuns(rs *Runs)
}

// run is one listed stretch of samples, as the summary holds it.
type run struct {
	vals []uint64
	w    int64
}

// Runs is the per-call scratch of a run merge: the listed runs, the
// copies CopyRuns took of them, the merge's ping-pong columns (one
// sample set), and the columns the live query paths answer from. Values
// are recycled through a pool, so steady-state queries allocate nothing
// for the merge.
type Runs struct {
	runs   []run
	copies []uint64
	sizes  []int
	vals   []uint64
	ws     []int64
	qs     QuerySnapshot
}

var runsPool = sync.Pool{New: func() any { return new(Runs) }}

// AddRun lists vals as a run of samples of weight w each. vals is never
// modified: when it is not sorted, a sorted copy is merged instead.
func (rs *Runs) AddRun(vals []uint64, w int64) {
	if len(vals) > 0 {
		rs.runs = append(rs.runs, run{vals: vals, w: w})
	}
}

// CopyRuns lists l's runs into rs as copies, so l may change as soon
// as it returns. A run copied before the copy column grows keeps
// pointing at the old array, which still holds its values.
func (rs *Runs) CopyRuns(l RunLister) {
	first := len(rs.runs)
	l.ListRuns(rs)
	for i := first; i < len(rs.runs); i++ {
		r := &rs.runs[i]
		at := len(rs.copies)
		rs.copies = append(rs.copies, r.vals...)
		r.vals = rs.copies[at:]
	}
}

// size returns the total sample count of the listed runs.
func (rs *Runs) size() int {
	n := 0
	for _, r := range rs.runs {
		n += len(r.vals)
	}
	return n
}

// stage copies run i into v, sorting the copy when the run is not
// sorted, and its weight into every slot of w.
func (rs *Runs) stage(i int, v []uint64, w []int64) {
	r := rs.runs[i]
	copy(v, r.vals)
	if !slices.IsSorted(v) {
		slices.Sort(v)
	}
	for j := range w {
		w[j] = r.w
	}
}

// mergeInto merges the listed runs into vals and cum, each exactly the
// total sample count long: vals in value order, cum[i] the total weight
// of vals[:i+1]. Equal values from different runs keep listing order,
// which no query can observe (ranks count strictly smaller values,
// quantiles report the value).
func (rs *Runs) mergeInto(vals []uint64, cum []int64) {
	rs.sizes = rs.sizes[:0]
	for _, r := range rs.runs {
		rs.sizes = append(rs.sizes, len(r.vals))
	}
	rs.mergeSegments(vals, cum, rs.sizes, rs.stage)
	var c int64
	for i, w := range cum {
		c += w
		cum[i] = c
	}
}

// snapshot overwrites qs with l's merged runs.
func (rs *Runs) snapshot(qs *QuerySnapshot, l RunLister) {
	l.ListRuns(rs)
	rs.build(qs)
}

// build overwrites qs with the merge of the listed runs: one exact-size
// value column and one cumulative-weight column, shared by the quantile
// and the rank side. rank(x) is the total weight of samples < x, which
// is the same pairs under the strict comparison, and N is the total
// sample weight (the quantile target base the sampling families use).
// Answers are byte-identical to AppendWeightedSnapshot over the same
// samples.
func (rs *Runs) build(qs *QuerySnapshot) {
	n := rs.size()
	qs.Grow(n, 0)
	qs.QVals, qs.QKeys = qs.QVals[:n], qs.QKeys[:n]
	rs.mergeInto(qs.QVals, qs.QKeys)
	qs.RVals, qs.RRanks = qs.QVals, qs.QKeys
	if n > 0 {
		qs.N = qs.QKeys[n-1]
	}
	qs.RStrict = true
}

// reset empties the scratch for the pool, dropping its references to
// summary state.
func (rs *Runs) reset() {
	clear(rs.runs)
	rs.runs = rs.runs[:0]
	rs.copies = rs.copies[:0]
}

// RunsRank is WeightedRank over l's merged runs, computed without
// merging: each run contributes its weight times its number of samples
// below x. The rank contract does not say which runs are sorted, and
// finding out is itself a pass over the run, so the count is that pass:
// branch-free, no copy, no sort.
func RunsRank(l RunLister, x uint64) int64 {
	rs := runsPool.Get().(*Runs)
	l.ListRuns(rs)
	var r int64
	for _, run := range rs.runs {
		var below int64
		for _, v := range run.vals {
			if v < x {
				below++
			}
		}
		r += run.w * below
	}
	rs.reset()
	runsPool.Put(rs)
	return r
}

// RunsQuantile is WeightedQuantile over l's merged runs.
func RunsQuantile(l RunLister, phi float64) uint64 {
	rs := runsPool.Get().(*Runs)
	rs.snapshot(&rs.qs, l)
	q := rs.qs.Quantile(phi)
	rs.reset()
	runsPool.Put(rs)
	return q
}

// RunsQuantiles is WeightedQuantiles over l's merged runs.
func RunsQuantiles(l RunLister, phis []float64) []uint64 {
	rs := runsPool.Get().(*Runs)
	rs.snapshot(&rs.qs, l)
	out := rs.qs.QuantileBatch(phis)
	rs.reset()
	runsPool.Put(rs)
	return out
}

// RunsRanks is WeightedRanks over l's merged runs.
func RunsRanks(l RunLister, xs []uint64) []int64 {
	rs := runsPool.Get().(*Runs)
	rs.snapshot(&rs.qs, l)
	out := rs.qs.RankBatch(xs)
	rs.reset()
	runsPool.Put(rs)
	return out
}

// AppendRunsSnapshot overwrites qs with the snapshot of l's merged runs.
// Its columns are allocated once, at their final size, and the merge
// writes straight into them.
func AppendRunsSnapshot(qs *QuerySnapshot, l RunLister) {
	rs := runsPool.Get().(*Runs)
	rs.snapshot(qs, l)
	rs.reset()
	runsPool.Put(rs)
}

// FoldRuns merges runs listed from any number of summaries into one new
// snapshot, whose columns are allocated once, at their final size. list
// lists every summary into the scratch it is handed, through CopyRuns,
// so each summary need only be held still while its own runs are
// copied; the merge itself reads only the copies.
func FoldRuns(list func(rs *Runs)) *QuerySnapshot {
	rs := runsPool.Get().(*Runs)
	list(rs)
	qs := new(QuerySnapshot)
	rs.build(qs)
	rs.reset()
	runsPool.Put(rs)
	return qs
}

// MergeSegments merges sorted segments into v and w, which must be
// exactly the total size long. Segment i holds sizes[i] entries; stage
// writes it, value-sorted, into the two columns it is handed, which are
// exactly that long. The result is in value order with every entry's
// weight beside it; entries of equal value keep segment order. The
// ping-pong scratch is pooled.
func MergeSegments(v []uint64, w []int64, sizes []int, stage func(i int, v []uint64, w []int64)) {
	rs := runsPool.Get().(*Runs)
	rs.mergeSegments(v, w, sizes, stage)
	runsPool.Put(rs)
}

// mergeSegments is MergeSegments over rs's scratch.
func (rs *Runs) mergeSegments(v []uint64, w []int64, sizes []int, stage func(int, []uint64, []int64)) {
	switch len(sizes) {
	case 0:
		return
	case 1:
		stage(0, v, w)
		return
	}
	n := len(v)
	rs.vals, rs.ws = slices.Grow(rs.vals[:0], n)[:n], slices.Grow(rs.ws[:0], n)[:n]
	mergeTree(v, w, rs.vals, rs.ws, sizes, 0, stage)
}

// mergeTree merges the segments first, first+1, … (sizes) into v and w.
// The tree splits the segment list where the sizes balance, so a small
// segment passes through few merges. The two halves are merged into av
// and aw, with v and w as their scratch, and then merged from there into
// v and w: the buffers alternate by depth, and a leaf is staged directly
// into whichever its parent reads.
func mergeTree(v []uint64, w []int64, av []uint64, aw []int64, sizes []int, first int, stage func(int, []uint64, []int64)) {
	if len(sizes) == 1 {
		stage(first, v, w)
		return
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	m, nl := 1, sizes[0]
	for m < len(sizes)-1 && 2*nl+sizes[m] < total {
		nl += sizes[m]
		m++
	}
	mergeTree(av[:nl], aw[:nl], v[:nl], w[:nl], sizes[:m], first, stage)
	mergeTree(av[nl:], aw[nl:], v[nl:], w[nl:], sizes[m:], first+m, stage)
	mergeCols(v, w, av[:nl], aw[:nl], av[nl:], aw[nl:])
}

// mergeCols merges the value-sorted column pairs (a, aw) and (b, bw)
// into v and w, taking a's entry first at equal values. The loop bodies
// have no data-dependent branch: each comparison selects an entry by
// conditional moves and advances exactly one cursor, so the merge costs
// the same on any interleaving. While both inputs have entries to spare,
// each step places the smallest remaining entry at the front and the
// largest at the back: the two ends are independent dependency chains
// that the core overlaps. After min(len(a), len(b)) such steps the two
// ends cannot have crossed, and a one-ended merge finishes the middle.
func mergeCols(v []uint64, w []int64, a []uint64, aw []int64, b []uint64, bw []int64) {
	aw, bw = aw[:len(a)], bw[:len(b)]
	i, j, ia, jb := 0, 0, len(a)-1, len(b)-1
	for t := min(len(a), len(b)); t > 0; t-- {
		x, xw := a[i], aw[i]
		y, yw := b[j], bw[j]
		fromB := 0
		if y < x {
			x, xw, fromB = y, yw, 1
		}
		v[i+j], w[i+j] = x, xw
		i += 1 - fromB
		j += fromB

		p, pw := a[ia], aw[ia]
		q, qw := b[jb], bw[jb]
		fromA := 0
		if p > q {
			q, qw, fromA = p, pw, 1
		}
		v[ia+jb+1], w[ia+jb+1] = q, qw
		ia -= fromA
		jb -= 1 - fromA
	}
	lo, hi := i+j, ia+jb+2
	v, w = v[lo:hi], w[lo:hi]
	a, aw, b, bw = a[i:ia+1], aw[i:ia+1], b[j:jb+1], bw[j:jb+1]
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		x, xw := a[i], aw[i]
		y, yw := b[j], bw[j]
		fromB := 0
		if y < x {
			x, xw, fromB = y, yw, 1
		}
		v[i+j], w[i+j] = x, xw
		i += 1 - fromB
		j += fromB
	}
	k := i + j
	k += copy(v[k:], a[i:])
	copy(w[i+j:], aw[i:])
	copy(v[k:], b[j:])
	copy(w[k:], bw[j:])
}
