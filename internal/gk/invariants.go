package gk

import "fmt"

// This file implements the Invariants() error contract (enforced at
// compile time by the root package's summary roster and sampled at
// runtime under -tags sqcheck) for all GK variants. The checks are the stream-independent half of the
// GK correctness argument: tuple ordering, weight conservation
// Σg = n, and the capacity invariant (2) g_i + Δ_i ≤ ⌊2εn⌋ that the
// εn rank-error bound is proved from. The stream-dependent invariant (1)
// needs the sorted input and stays in checkInvariants (test-only).

// checkTuples verifies ordering, g ≥ 1, Δ ≥ 0, Σg == wantWeight, and —
// for every tuple but the first, when the capacity p = ⌊2εn⌋ is positive
// — the GK invariant (2) g+Δ ≤ p. kind names the variant in errors.
func checkTuples(kind string, seq tupleSeq, wantWeight, p int64) error {
	var (
		rsum int64
		prev uint64
		i    int
		err  error
	)
	seq(func(t tuple) bool {
		switch {
		case t.g < 1:
			err = fmt.Errorf("%s: tuple %d (v=%d) has weight g=%d < 1", kind, i, t.v, t.g)
		case t.del < 0:
			err = fmt.Errorf("%s: tuple %d (v=%d) has negative Δ=%d", kind, i, t.v, t.del)
		case i > 0 && t.v < prev:
			err = fmt.Errorf("%s: tuple %d out of order: %d after %d", kind, i, t.v, prev)
		case i > 0 && p > 0 && t.g+t.del > p:
			err = fmt.Errorf("%s: tuple %d (v=%d) violates invariant (2): g+Δ = %d > ⌊2εn⌋ = %d",
				kind, i, t.v, t.g+t.del, p)
		}
		if err != nil {
			return false
		}
		rsum += t.g
		prev = t.v
		i++
		return true
	})
	if err != nil {
		return err
	}
	if rsum != wantWeight {
		return fmt.Errorf("%s: weight not conserved: Σg = %d, want %d", kind, rsum, wantWeight)
	}
	return nil
}

// Invariants implements invariant.Checkable: tuple-list structure, weight
// conservation, the g+Δ capacity bound, and the integrity of the
// removal-cost heap that drives eager tuple eviction.
func (a *Adaptive) Invariants() error {
	if err := checkTuples("gk/adaptive", a.seq, a.n, threshold(a.eps, a.n)); err != nil {
		return err
	}
	return a.heapInvariants()
}

// heapInvariants verifies min-heap order, back-index integrity, cached
// removal costs, and that the heap holds exactly the removable tuples
// (every tuple with both a predecessor and a successor).
func (a *Adaptive) heapInvariants() error {
	for i, t := range a.heap {
		if t.hidx != i {
			return fmt.Errorf("gk/adaptive: heap slot %d back-index is %d", i, t.hidx)
		}
		if i > 0 && a.heap[(i-1)/2].cost > t.cost {
			return fmt.Errorf("gk/adaptive: heap order violated at slot %d", i)
		}
		cost, ok := a.computeCost(t)
		if !ok {
			return fmt.Errorf("gk/adaptive: heap slot %d holds a permanent tuple", i)
		}
		if cost != t.cost {
			return fmt.Errorf("gk/adaptive: heap slot %d cost stale: cached %d, actual %d",
				i, t.cost, cost)
		}
	}
	want := a.list.Len() - 2 // first and last tuples are permanent
	if want < 0 {
		want = 0
	}
	if len(a.heap) != want {
		return fmt.Errorf("gk/adaptive: heap holds %d tuples, want %d of %d",
			len(a.heap), want, a.list.Len())
	}
	return nil
}

// Invariants implements invariant.Checkable.
func (t *Theory) Invariants() error {
	if t.compressEvery < 1 {
		return fmt.Errorf("gk/theory: compress period %d < 1", t.compressEvery)
	}
	return checkTuples("gk/theory", t.seq, t.n, threshold(t.eps, t.n))
}

// Invariants implements invariant.Checkable. Buffered elements not yet
// merged into the tuple array carry weight outside Σg, so conservation is
// checked against n − len(buf).
func (a *Array) Invariants() error {
	if len(a.buf) > cap(a.buf) {
		return fmt.Errorf("gk/array: buffer length %d exceeds capacity %d", len(a.buf), cap(a.buf))
	}
	return checkTuples("gk/array", a.seq, a.n-int64(len(a.buf)), threshold(a.eps, a.n))
}

// Invariants implements invariant.Checkable. The biased summary replaces
// the uniform capacity with the rank-dependent f(r) = max(1, ⌊2εr⌋);
// because Δ values are inherited GK-style from the successor at insert
// time, the capacity a tuple is accountable to is the one at its maximum
// feasible rank r_i + Δ_i (the rank its Δ interval extends to), which is
// what the relative-error extraction rule consults.
func (b *Biased) Invariants() error {
	var (
		rsum int64
		prev uint64
		err  error
	)
	for i := 0; i < b.tuples.len(); i++ {
		t := b.tuples.at(i)
		switch {
		case t.g < 1:
			err = fmt.Errorf("gk/biased: tuple %d (v=%d) has weight g=%d < 1", i, t.v, t.g)
		case t.del < 0:
			err = fmt.Errorf("gk/biased: tuple %d (v=%d) has negative Δ=%d", i, t.v, t.del)
		case i > 0 && t.v < prev:
			err = fmt.Errorf("gk/biased: tuple %d out of order: %d after %d", i, t.v, prev)
		}
		if err != nil {
			return err
		}
		rsum += t.g
		if i > 0 && t.g+t.del > b.invariant(rsum+t.del) {
			return fmt.Errorf("gk/biased: tuple %d (v=%d) violates biased invariant: g+Δ = %d > f(%d) = %d",
				i, t.v, t.g+t.del, rsum+t.del, b.invariant(rsum+t.del))
		}
		prev = t.v
	}
	if want := b.n - int64(len(b.buf)); rsum != want {
		return fmt.Errorf("gk/biased: weight not conserved: Σg = %d, want %d", rsum, want)
	}
	return nil
}
