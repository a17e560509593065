package sharded

import (
	"fmt"
	"math"
	"sync/atomic"

	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded/cell"
)

// Elastic operations: online re-sharding and re-ε rebuild.
//
// Both follow the same epoch-swap protocol:
//
//  1. Take the topology write lock — queries that fold or aggregate
//     wait, writers do not (they hold no topology lock).
//  2. Build the successor generation and publish it with one atomic
//     store. From this instant every new write routes to the new shard
//     set. A turnstile, which cannot freeze, first runs one trial fold
//     and refuses before this step when it fails (see drain).
//  3. Retire each old shard under its own mutex (set the flag, take the
//     summary). A writer blocked on that mutex wakes, sees the flag,
//     and re-routes — ingestion is stalled at most for one shard's
//     drain, never for the whole operation.
//  4. Drain the taken summaries into the successor: MERGE for mergeable
//     families, adoption (pointer move) for the GK family on reshard,
//     RetargetMerge for budget-widening re-ε, and freezing into a
//     query-time rank component when nothing else preserves the data.
//
// ε-budget accounting: a MERGE preserves max(ε₁, ε₂) (the mergeable-
// summary rule the SQ012 lint polices), RetargetMerge widens the
// receiver to that same max, and a frozen component keeps its own ε and
// contributes its own ±εᵢnᵢ to the additive rank combination. EpsBudget
// reports the max over the live shards and all frozen components, so
// the composed error of any query is ≤ 2·EpsBudget()·n + Components()
// for rank-combined families and ≤ EpsBudget()·n for merged and
// run-folded ones.

// retiredComp is a summary frozen by an elastic operation: it no longer
// receives writes and participates in queries by additive rank, or
// through the run fold when it lists runs. The
// snapshot is built eagerly at freeze time when the family supports it,
// making later queries lock-free; otherwise queries read the component
// under its lock (GKBiased's reads flush internally, so they mutate).
type retiredComp struct {
	cell.Cell
	qs  *core.QuerySnapshot
	n   int64
	eps float64 // the component's own error budget; 0 when unknown
}

// newRetiredComp freezes s. The caller must be the only owner of s (it
// was taken from a retired shard under that shard's mutex).
func newRetiredComp(s core.Summary) *retiredComp {
	c := &retiredComp{n: s.Count()}
	if ss, ok := s.(core.Snapshotter); ok {
		c.qs = core.BuildQuerySnapshot(ss)
	}
	if er, ok := s.(epsReporter); ok {
		c.eps = er.Eps()
	}
	c.Init(s)
	return c
}

func (c *retiredComp) rank(x uint64) int64 {
	if c.qs != nil {
		return c.qs.Rank(x)
	}
	var r int64
	c.Read(func(s core.Summary) { r = s.Rank(x) })
	return r
}

// copyRuns lists the component's runs into rs when its summary lists
// runs (core.RunLister), and reports whether it does.
func (c *retiredComp) copyRuns(rs *core.Runs) (ok bool) {
	c.Read(func(s core.Summary) {
		if l, lists := s.(core.RunLister); lists {
			rs.CopyRuns(l)
			ok = true
		}
	})
	return ok
}

func (c *retiredComp) spaceBytes() (b int64) {
	c.Read(func(s core.Summary) { b = s.SpaceBytes() })
	return b
}

func (c *retiredComp) invariants() (err error) {
	c.Read(func(s core.Summary) {
		if ic, ok := s.(invariantChecker); ok {
			err = ic.Invariants()
		}
	})
	return err
}

// retiredSet collects a container's frozen components. comps is only
// mutated under the container's topology write lock and only read under
// its read lock; ver is bumped on every mutation so the lock-free query
// cache can validate without the lock.
type retiredSet struct {
	ver   atomic.Uint64
	comps []*retiredComp
}

func (r *retiredSet) add(c *retiredComp) {
	r.comps = append(r.comps, c)
	r.ver.Add(1)
}

func (r *retiredSet) count() int64 {
	var n int64
	for _, c := range r.comps {
		n += c.n
	}
	return n
}

func (r *retiredSet) rank(x uint64) int64 {
	var n int64
	for _, c := range r.comps {
		n += c.rank(x)
	}
	return n
}

func (r *retiredSet) addRanks(dst []int64, xs []uint64) {
	for _, c := range r.comps {
		for i, x := range xs {
			dst[i] += c.rank(x)
		}
	}
}

func (r *retiredSet) spaceBytes() int64 {
	var b int64
	for _, c := range r.comps {
		b += c.spaceBytes()
	}
	return b
}

func (r *retiredSet) invariants() error {
	for i, c := range r.comps {
		if err := c.invariants(); err != nil {
			return fmt.Errorf("sharded: retired component %d: %w", i, err)
		}
	}
	return nil
}

// A ShardObserver brackets one per-shard stall window: it is called
// with the shard's index when the window opens and the returned func
// when it closes. Containers take two — SetDrainObserver for each
// retired shard's drain during an elastic operation (Reshard,
// Retarget), SetCheckpointObserver for each live shard's marshal
// during a checkpoint save (the window a writer routed to that shard
// can stall for). The containers never read the clock themselves — a
// harness that wants stall telemetry supplies it by closing over it
// (cmd/quantstress records both durations this way and asserts bounds
// in its soak report). A drain observer runs under the topology write
// lock, so it must not call back into the container.
type ShardObserver func(shard int) (done func())

// SetDrainObserver installs obs (nil removes it). Safe to call
// concurrently with elastic operations: the pointer is swapped
// atomically and each drain loads it once per shard.
func (c *container) SetDrainObserver(obs ShardObserver) { setObserver(&c.drainObs, obs) }

// SetCheckpointObserver installs obs (nil removes it). Safe to call
// concurrently with saves; a save in flight may complete with the
// previous observer.
func (c *container) SetCheckpointObserver(obs ShardObserver) { setObserver(&c.ckptObs, obs) }

func setObserver(p *atomic.Pointer[ShardObserver], obs ShardObserver) {
	if obs == nil {
		p.Store(nil)
		return
	}
	p.Store(&obs)
}

// observe opens shard i's window on the observer in p and returns the
// func that closes it (a no-op when none is installed).
func observe(p *atomic.Pointer[ShardObserver], i int) func() {
	if obs := p.Load(); obs != nil {
		if done := (*obs)(i); done != nil {
			return done
		}
	}
	return func() {}
}

// finerThan reports whether tgt's error budget is strictly tighter than
// old's, when both report one.
func finerThan(tgt, old core.Summary) bool {
	te, ok1 := tgt.(epsReporter)
	oe, ok2 := old.(epsReporter)
	return ok1 && ok2 && te.Eps() < oe.Eps()
}

// merge folds old into tgt by a plain MERGE — the Reshard drain, where
// both sides come from one configuration.
func merge(tgt, old core.Summary) error {
	m, ok := tgt.(core.Mergeable)
	if !ok {
		return fmt.Errorf("sharded: %T has no merge", tgt)
	}
	return m.MergeSummary(old)
}

// absorb folds old into tgt when that preserves both budgets' meaning:
// a plain MERGE when the configurations match, a RetargetMerge
// (widening tgt to max(ε_tgt, ε_old)) when tgt's budget is not finer.
// It errors when the data must be frozen instead — merging a coarse old
// summary into a finer target would silently pin the whole sketch at
// the old ε forever; freezing lets new data earn the finer budget while
// the old data keeps its own.
func absorb(tgt, old core.Summary) error {
	err := merge(tgt, old)
	if err == nil || finerThan(tgt, old) {
		return err
	}
	if r, ok := tgt.(core.Retargetable); ok {
		return r.RetargetMerge(old)
	}
	return err
}

// Reshard grows or shrinks the shard count to p without stopping
// ingestion. Mergeable families drain every retired shard into the new
// shard set through MERGE. For the non-mergeable GK family a cash
// register adopts the first min(P_old, p) summaries in place (a pointer
// move — no accuracy cost) and freezes any surplus as rank components,
// so a shrink adds at most P_old − p components to the additive bound.
// A turnstile rejects non-mergeable families: the re-routed deletions
// of an element must cancel against its re-merged insertions, which the
// linear sketches guarantee exactly, while a frozen component could
// never be decremented again.
func (c *container) Reshard(p int) error {
	if err := checkShards(p); err != nil {
		return err
	}
	c.topo.Lock()
	defer c.topo.Unlock()
	old := c.gen.Load()
	switch {
	case p == len(old.shards):
		return nil
	case old.caps.mergeable:
		return c.drain(old, p, old.fresh, old.caps, merge)
	case !c.freezes:
		return fmt.Errorf("sharded: cannot reshard a non-mergeable turnstile family: re-routed deletions must cancel against re-merged insertions")
	}
	c.adopt(old, p)
	c.q.invalidate()
	return nil
}

// retarget is the kind-independent body of Retarget: a successor
// generation of the same shard count built by fresh, drained into by
// absorb.
func (c *container) retarget(fresh func() core.Summary) error {
	c.topo.Lock()
	defer c.topo.Unlock()
	caps, err := probeCaps(fresh)
	if err != nil {
		return err
	}
	old := c.gen.Load()
	return c.drain(old, len(old.shards), fresh, caps, absorb)
}

// drain replaces old by a successor of p shards built by fresh: it
// publishes the successor first (writers re-route immediately), then
// folds retired shard i into successor shard i mod p with fold. When a
// fold fails, a cash register freezes the shard's data as a rank
// component. A turnstile cannot freeze, so it decides before
// publishing: a turnstile generation has one configuration (a frame
// decodes one generation, and Retarget absorbs every shard), so one
// trial fold of a live shard into a throwaway successor summary speaks
// for every shard, and a refusal returns without touching the
// topology. The caller holds the topology write lock.
func (c *container) drain(old *generation, p int, fresh func() core.Summary, caps foldCaps, fold func(tgt, old core.Summary) error) error {
	if !c.freezes {
		trial := fresh()
		var err error
		old.shards[0].Read(func(s core.Summary) { err = fold(trial, s) })
		if err != nil {
			return fmt.Errorf("sharded: the successor configuration cannot absorb the live shards, and deletions rule out freezing: %w", err)
		}
	}
	next := newGeneration(old.id+1, p, fresh, caps)
	c.gen.Store(next)
	var err error
	for i := range old.shards {
		done := observe(&c.drainObs, i)
		// An insert-only summary with no elements holds nothing; a
		// turnstile shard's zero net count may still hold cancelling
		// structure after a reshard, so it always folds.
		if s, _ := old.shards[i].Retire(nil); s.Count() != 0 || !c.freezes {
			// No elastic operation can retire next's shards while we
			// hold the topology write lock, so the write always lands.
			var ferr error
			next.shards[i%p].Write(func(dst core.Summary) { ferr = fold(dst, s) })
			switch {
			case ferr == nil:
			case c.freezes:
				c.ret.add(newRetiredComp(s))
			case err == nil:
				err = fmt.Errorf("sharded: drain of shard %d failed after a successful trial: %w", i, ferr)
			}
		}
		done()
	}
	c.q.invalidate()
	return err
}

// adopt moves the first min(P_old, p) summaries into the successor
// unchanged and freezes the surplus. The successor is built before it
// is published, so writers spin (seeing retired flags under the old
// generation) only for the duration of the pointer moves.
func (c *container) adopt(old *generation, p int) {
	next := &generation{id: old.id + 1, shards: make([]cell.Cell, p), fresh: old.fresh, caps: old.caps}
	keep := min(len(old.shards), p)
	for i := 0; i < keep; i++ {
		done := observe(&c.drainObs, i)
		s, _ := old.shards[i].Retire(nil)
		next.shards[i].Init(s)
		done()
	}
	for i := keep; i < p; i++ {
		next.shards[i].Init(old.fresh())
	}
	for i := keep; i < len(old.shards); i++ {
		done := observe(&c.drainObs, i)
		if s, _ := old.shards[i].Retire(nil); s.Count() > 0 {
			c.ret.add(newRetiredComp(s))
		}
		done()
	}
	c.gen.Store(next)
}

// Components returns the number of frozen retired components currently
// contributing to queries by additive rank (always 0 for a turnstile).
func (c *container) Components() int {
	c.topo.RLock()
	defer c.topo.RUnlock()
	return len(c.ret.comps)
}

// EpsBudget reports the composed error budget: the max over every live
// shard's ε and every frozen component's ε (0 when the family does not
// report one). The live shards answer for themselves, so a decoded
// frame or a budget-widening RetargetMerge reports the ε the data
// actually carries, not the factory's. Rank-combined queries err by at
// most 2·EpsBudget()·n + Shards() + Components(); merged and run folds
// by at most EpsBudget()·n.
func (c *container) EpsBudget() float64 {
	c.topo.RLock()
	defer c.topo.RUnlock()
	g := c.gen.Load()
	var eps float64
	for i := range g.shards {
		g.shards[i].Read(func(s core.Summary) {
			if er, ok := s.(epsReporter); ok {
				eps = math.Max(eps, er.Eps())
			}
		})
	}
	for _, comp := range c.ret.comps {
		eps = math.Max(eps, comp.eps)
	}
	return eps
}
