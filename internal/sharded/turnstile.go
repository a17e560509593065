package sharded

import (
	"fmt"
	"runtime"
	"sync"

	"streamquantiles/internal/core"
)

// Turnstile partitions a strict-turnstile stream across P per-shard
// summaries. Routing is by value affinity — mix(x) mod P — so an
// element's deletions always reach the shard that saw its insertions.
// All methods are safe for concurrent use, including Reshard/Retarget.
type Turnstile struct {
	container

	// parts pools per-call partition scratch: batch routing scatters the
	// input into per-shard sub-batches without allocating per call.
	// Writer handles carry their own partition instead, so their flushes
	// skip even the pool round-trip.
	parts sync.Pool
}

// partition is the pooled scatter scratch of one in-flight batch call.
type partition struct {
	byShard [][]uint64
}

// resize adapts the scratch to the current generation's shard count
// and resets every sub-batch.
func (pt *partition) resize(p int) {
	for len(pt.byShard) < p {
		pt.byShard = append(pt.byShard, nil)
	}
	pt.byShard = pt.byShard[:p]
	for i := range pt.byShard {
		pt.byShard[i] = pt.byShard[i][:0]
	}
}

// NewTurnstile builds a P-way sharded turnstile summary; fresh must
// return a new empty summary per call, all identically configured
// (including seeds, so shards can merge at query time). An invalid
// shard count surfaces as an error, not a panic.
func NewTurnstile(p int, fresh func() core.Turnstile) (*Turnstile, error) {
	t := &Turnstile{}
	if err := t.setup(p, widen(fresh), turnFreezes); err != nil {
		return nil, err
	}
	t.parts.New = func() any { return &partition{} }
	return t, nil
}

// Retarget migrates the turnstile container to a new factory. Freezing
// is not an option under deletions, so the new configuration must
// absorb the live shards (merge or retarget-merge): one trial absorb on
// a throwaway instance decides before anything is published, and a
// refusal leaves the live topology untouched (see drain).
func (t *Turnstile) Retarget(fresh func() core.Turnstile) error {
	return t.retarget(widen(fresh))
}

// Insert implements core.Turnstile. A shard caught mid-retire re-routes
// against the successor generation.
func (t *Turnstile) Insert(x uint64) { t.add(x, false) }

// Delete implements core.Turnstile.
func (t *Turnstile) Delete(x uint64) { t.add(x, true) }

// add routes one insertion (or, with del, one deletion) to x's shard.
func (t *Turnstile) add(x uint64, del bool) {
	for !t.route(mix(x)).Write(func(s core.Summary) {
		if ts := s.(core.Turnstile); del {
			ts.Delete(x)
		} else {
			ts.Insert(x)
		}
	}) {
		runtime.Gosched()
	}
}

// InsertBatch implements core.BatchTurnstile.
func (t *Turnstile) InsertBatch(xs []uint64) { t.AddBatch(xs, 1) }

// DeleteBatch implements core.BatchTurnstile.
func (t *Turnstile) DeleteBatch(xs []uint64) { t.AddBatch(xs, -1) }

// AddBatch implements core.BatchTurnstile: one scatter pass partitions
// the batch by value affinity, then each non-empty sub-batch flows
// through its shard's native batch path under one lock acquisition.
// Elements whose shard retired mid-call re-scatter against the
// successor generation (its routing modulus differs), so no element is
// lost across a reshard.
func (t *Turnstile) AddBatch(xs []uint64, delta int64) {
	if len(xs) == 0 {
		return
	}
	pt := t.parts.Get().(*partition)
	t.scatter(pt, xs, delta)
	t.parts.Put(pt)
}

// scatter drives addBatchOnce to completion: elements whose shard
// retired mid-call re-route against the successor generation until the
// whole batch has landed. Writer handles call it with their private
// partition scratch; AddBatch with a pooled one.
func (t *Turnstile) scatter(pt *partition, xs []uint64, delta int64) {
	for len(xs) > 0 {
		left := t.addBatchOnce(pt, xs, delta)
		if len(left) > 0 {
			runtime.Gosched() // a reshard is draining; re-route on its successor
		}
		xs = left
	}
}

// addBatchOnce routes xs over the current generation and returns the
// elements whose shard retired mid-call. The leftover slice is a fresh
// allocation — it only exists while a reshard is in flight, never in
// steady-state ingestion.
func (t *Turnstile) addBatchOnce(pt *partition, xs []uint64, delta int64) []uint64 {
	g := t.gen.Load()
	p := uint64(len(g.shards))
	pt.resize(int(p))
	for _, x := range xs {
		si := mix(x) % p
		pt.byShard[si] = append(pt.byShard[si], x)
	}
	var leftover []uint64
	for i := range g.shards {
		sub := pt.byShard[i]
		if len(sub) == 0 {
			continue
		}
		if !g.shards[i].Write(func(s core.Summary) { addBatch(s.(core.Turnstile), sub, delta) }) {
			leftover = append(leftover, sub...)
		}
	}
	return leftover
}

// addBatch applies a weighted batch through the summary's native path,
// falling back to |delta| rounds of per-element calls.
func addBatch(s core.Turnstile, xs []uint64, delta int64) {
	if bt, ok := s.(core.BatchTurnstile); ok {
		bt.AddBatch(xs, delta)
		return
	}
	rounds, ins := delta, true
	if rounds < 0 {
		rounds, ins = -rounds, false
	}
	for ; rounds > 0; rounds-- {
		for _, x := range xs {
			if ins {
				s.Insert(x)
			} else {
				s.Delete(x)
			}
		}
	}
}

// Invariants implements the sanitizer contract. Generation 0 routing
// keeps every shard a valid strict-turnstile summary, and so does a
// lone shard, so those are deep-checked individually. After a reshard
// only the whole container is strict (see generation), so later
// generations of several shards check the counter sum of the shards in
// one fresh target instead — the fold queries use, which for the linear
// sketches is exactly the unsharded sketch of the whole stream, so the
// check has full strength.
func (t *Turnstile) Invariants() error {
	t.topo.RLock()
	defer t.topo.RUnlock()
	g := t.gen.Load()
	if g.id == 0 || len(g.shards) == 1 {
		return t.invariantsLocked()
	}
	sum := g.fresh()
	lin, ok := sum.(core.Linear)
	if !ok {
		return fmt.Errorf("sharded: post-reshard invariant fold: %T is not a linear sketch", sum)
	}
	if err := sumShards(g, lin, make([]uint64, len(g.shards))); err != nil {
		return fmt.Errorf("sharded: post-reshard invariant fold: %w", err)
	}
	if ic, ok := sum.(invariantChecker); ok {
		if err := ic.Invariants(); err != nil {
			return fmt.Errorf("sharded: merged fold (generation %d): %w", g.id, err)
		}
	}
	return nil
}
