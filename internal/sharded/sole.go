package sharded

import "streamquantiles/internal/core"

// Sole is a one-shard container over a summary its owner built: the
// engine of the goroutine-safe wrappers. Its container methods answer
// as any container's do; at one shard that means from the summary's own
// epoch-cached snapshot, or under the shard's lock for the families
// without one (see query.go). Sole adds what an owner of the summary
// itself needs: encode and decode it in place, and swap it for another.
//
// A Sole container has no factory, so it never reshards, retargets by
// factory or decodes a sharded frame; those are not part of the
// wrappers that hold it.
type Sole struct{ *container }

// NewSoleCashRegister returns a one-shard container holding s, and its
// Sole view.
func NewSoleCashRegister(s core.CashRegister) (*CashRegister, Sole) {
	c := &CashRegister{}
	c.gen.Store(newSoleGeneration(0, s))
	c.freezes = cashFreezes
	return c, Sole{&c.container}
}

// NewSoleTurnstile returns a one-shard container holding s, and its
// Sole view.
func NewSoleTurnstile(s core.Turnstile) (*Turnstile, Sole) {
	t := &Turnstile{}
	t.gen.Store(newSoleGeneration(0, s))
	t.freezes = turnFreezes
	t.parts.New = func() any { return &partition{} }
	return t, Sole{&t.container}
}

// newSoleGeneration builds a one-shard generation holding s, with no
// factory.
func newSoleGeneration(id uint64, s core.Summary) *generation {
	g := &generation{id: id, shards: make([]shard, 1), caps: capsOf(s)}
	g.shards[0].s = s
	return g
}

// Marshal encodes the summary, under the shard's lock.
func (o Sole) Marshal() ([]byte, error) {
	var blob []byte
	err := o.hold(false, func(s core.Summary) (err error) {
		blob, err = marshalSummaryInto(s, nil)
		return err
	})
	return blob, err
}

// Unmarshal decodes blob into the summary in place, under the shard's
// lock, bumping the write epoch first so cached answers are rebuilt.
func (o Sole) Unmarshal(blob []byte) error {
	return o.hold(true, func(s core.Summary) error { return unmarshalSummary(s, blob) })
}

// hold runs fn on the summary under the shard's lock; write bumps the
// epoch first.
func (o Sole) hold(write bool, fn func(s core.Summary) error) error {
	o.topo.RLock()
	defer o.topo.RUnlock()
	sh := &o.gen.Load().shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if write {
		sh.epoch.Add(1)
	}
	return fn(sh.s)
}

// Replace swaps the summary for next once absorb has folded the old one
// into it; when absorb fails nothing changes. The old shard retires
// under its own lock in the same hold, so a writer waiting on it wakes
// to the flag and re-routes to next: no write is lost between the
// absorb and the swap.
func (o Sole) Replace(next core.Summary, absorb func(tgt, old core.Summary) error) error {
	o.topo.Lock()
	defer o.topo.Unlock()
	old := o.gen.Load()
	sh := &old.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := absorb(next, sh.s); err != nil {
		return err
	}
	o.gen.Store(newSoleGeneration(old.id+1, next))
	sh.retired, sh.s = true, nil
	sh.epoch.Add(1)
	o.q.invalidate()
	return nil
}
