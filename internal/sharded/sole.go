package sharded

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/sharded/cell"
)

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
	g := &generation{id: id, shards: make([]cell.Cell, 1), caps: capsOf(s)}
	g.shards[0].Init(s)
	return g
}

// Marshal encodes the summary, under the shard's lock.
func (o Sole) Marshal() (blob []byte, err error) {
	o.topo.RLock()
	defer o.topo.RUnlock()
	o.gen.Load().shards[0].Read(func(s core.Summary) { blob, err = marshalSummaryInto(s, nil) })
	return blob, err
}

// Unmarshal decodes blob into the summary in place, under the shard's
// lock, bumping the write epoch first so cached answers are rebuilt.
// Only Replace retires the shard, and it holds the topology lock
// exclusively, so the write always lands.
func (o Sole) Unmarshal(blob []byte) (err error) {
	o.topo.RLock()
	defer o.topo.RUnlock()
	o.gen.Load().shards[0].Write(func(s core.Summary) { err = unmarshalSummary(s, blob) })
	return err
}

// Replace swaps the summary for next once absorb has folded the old one
// into it; when absorb fails nothing changes. The old shard retires in
// the same critical section as the absorb, so a writer waiting on it
// wakes to the flag and re-routes to next: no write is lost between the
// absorb and the swap.
func (o Sole) Replace(next core.Summary, absorb func(tgt, old core.Summary) error) error {
	o.topo.Lock()
	defer o.topo.Unlock()
	old := o.gen.Load()
	if _, err := old.shards[0].Retire(func(s core.Summary) error { return absorb(next, s) }); err != nil {
		return err
	}
	o.gen.Store(newSoleGeneration(old.id+1, next))
	o.q.invalidate()
	return nil
}
