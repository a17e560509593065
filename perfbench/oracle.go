package main

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
)

// The live workloads' writers cycle through pre-generated rings, so the
// elements any writer has sent are exactly the stream positions [0, p)
// of its ring repeated. streamRanks answers exact rank queries over any
// such prefix from internal/exact oracles: one over the whole ring and
// one per block of it.

const rankBlock = 4096

type streamRanks struct {
	ring   []uint64
	whole  *exact.Oracle
	blocks []*exact.Oracle // blocks[i] covers ring[i*rankBlock:]
}

func newStreamRanks(ring []uint64) *streamRanks {
	sr := &streamRanks{ring: ring, whole: exact.New(ring)}
	for off := 0; off < len(ring); off += rankBlock {
		sr.blocks = append(sr.blocks, exact.New(ring[off:min(off+rankBlock, len(ring))]))
	}
	return sr
}

// below returns how many of stream positions [0, p) hold a value < x.
func (sr *streamRanks) below(x uint64, p int64) int64 {
	n := int64(len(sr.ring))
	r := p / n * sr.whole.Rank(x)
	rem := int(p % n)
	full := rem / rankBlock
	for _, o := range sr.blocks[:full] {
		r += o.Rank(x)
	}
	for _, v := range sr.ring[full*rankBlock : rem] {
		if v < x {
			r++
		}
	}
	return r
}

// bracket bounds what a container held while one query ran, per writer:
// inserted stream positions [0, insLo) were surely present and none past
// insHi could be; deleted positions [0, delLo) were surely gone and none
// past delHi could be. A quiesced container has lo == hi.
type bracket struct {
	insLo, insHi, delLo, delHi []int64
}

// liveOracle scores a live container's answers against the exact
// multiset its writers sent.
type liveOracle struct {
	writers []*streamRanks
}

// count returns the least and greatest element count the bracket allows.
func (b bracket) count() (lo, hi int64) {
	for w := range b.insLo {
		lo += b.insLo[w] - b.delHi[w]
		hi += b.insHi[w] - b.delLo[w]
	}
	return lo, hi
}

// below returns the least and greatest number of elements < x the
// bracket allows.
func (o *liveOracle) below(b bracket, x uint64) (lo, hi int64) {
	for w, sr := range o.writers {
		lo += sr.below(x, b.insLo[w]) - sr.below(x, b.delHi[w])
		hi += sr.below(x, b.insHi[w]) - sr.below(x, b.delLo[w])
	}
	return lo, hi
}

// quantileErr is the least rank error answer q for φ can have: the
// distance from the target rank ⌊φn⌋ to the positions q occupies, the
// paper's error semantics, minimised over what the bracket allows.
func (o *liveOracle) quantileErr(b bracket, q uint64, phi float64) int64 {
	nLo, nHi := b.count()
	tLo, tHi := core.TargetRank(phi, nLo), core.TargetRank(phi, nHi)
	first, _ := o.below(b, q)   // q's first position is at least this
	_, after := o.below(b, q+1) // and its last below this
	last := max(first, after-1)
	switch {
	case tHi < first:
		return first - tHi
	case tLo > last:
		return tLo - last
	}
	return 0
}

// rankErr is the least distance from an estimated rank of x to the exact
// interval [#<x, #≤x] the bracket allows.
func (o *liveOracle) rankErr(b bracket, x uint64, est int64) int64 {
	lo, _ := o.below(b, x)
	_, hi := o.below(b, x+1)
	switch {
	case est < lo:
		return lo - est
	case est > hi:
		return est - hi
	}
	return 0
}
