package dyadic

import (
	"fmt"
	"sync"

	"streamquantiles/internal/core"
)

// batchChunk is the number of elements AddBatch handles per pass: one
// probe, then either path below.
const batchChunk = 4096

// batchScratch is AddBatch's per-call scratch: the shifted intervals of
// the level-major path, or the (interval, weight) runs of the coalesced
// path and their radix-sort buffer. It is pooled rather than held by
// the sketch, so SpaceBytes keeps the paper's accounting, and rather
// than stack-allocated, since it reaches the per-level sketches through
// the freqsketch.Sketch interface, which would move a stack array to
// the heap on every call.
type batchScratch struct {
	ivs, tmp [batchChunk]uint64
	ws       [batchChunk]int64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// The duplicate probe: probeSamples evenly spaced elements of a chunk
// go into a probeSlots-slot open-addressing table, and probeRepeats
// repeats among them mark the chunk as skewed. 4096-element uniform
// chunks over 2^16 or 2^24 average under 0.1 repeats; 512-element
// Zipf(1.1) chunks over 2^24 average 19.
const (
	probeSamples = 64
	probeSlots   = 256
	probeRepeats = 4
)

// InsertBatch implements core.BatchTurnstile.
func (s *Sketch) InsertBatch(xs []uint64) { s.AddBatch(xs, 1) }

// DeleteBatch implements core.BatchTurnstile.
func (s *Sketch) DeleteBatch(xs []uint64) { s.AddBatch(xs, -1) }

// AddBatch implements core.BatchTurnstile: every element of xs receives
// the signed weight delta. Each chunk is probed for duplicates. A
// skewed chunk takes addRuns, which hashes every distinct interval of
// every level once; any other chunk takes addLevels. Both reorder the
// per-item updates and the coalesced path sums some of them first. The
// sketches are linear and their counters exact int64 sums, so either
// way the counters are byte-identical to per-item Insert and Delete.
func (s *Sketch) AddBatch(xs []uint64, delta int64) {
	for _, x := range xs {
		s.checkElement(x)
	}
	s.n += delta * int64(len(xs))
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	for len(xs) > 0 {
		m := min(len(xs), batchChunk)
		if skewed(xs[:m]) {
			s.addRuns(sc, xs[:m], delta)
		} else {
			s.addLevels(sc, xs[:m], delta)
		}
		xs = xs[m:]
	}
}

// skewed is the duplicate probe over one chunk. Keys are stored plus
// one, so a zero slot is empty (elements are below 2^62).
func skewed(chunk []uint64) bool {
	var table [probeSlots]uint64
	n := min(len(chunk), probeSamples)
	repeats := 0
	for i := 0; i < n; i++ {
		key := chunk[i*len(chunk)/n] + 1
		h := key * 0x9e3779b97f4a7c15 >> 56
		for table[h] != 0 && table[h] != key {
			h = (h + 1) % probeSlots
		}
		if table[h] == key {
			repeats++
		}
		table[h] = key
	}
	return repeats >= probeRepeats
}

// addLevels is the all-distinct path: level-major over the chunk, so
// the level bookkeeping (exact-vs-sketch dispatch, interval shift) runs
// once per chunk and the per-level sketches see whole slices (their own
// AddBatch hoists hash coefficients and keeps counter scatter
// row-local).
func (s *Sketch) addLevels(sc *batchScratch, chunk []uint64, delta int64) {
	sh := sc.ivs[:len(chunk)]
	for l := 0; l < s.bits; l++ {
		ivs := chunk
		if l > 0 {
			for i, x := range chunk {
				sh[i] = x >> l
			}
			ivs = sh
		}
		if ex := s.lvls[l].exact; ex != nil {
			for _, iv := range ivs {
				ex[iv] += delta
			}
		} else {
			s.lvls[l].sk.AddBatch(ivs, delta)
		}
	}
}

// addRuns is the coalesced path. A sorted copy of the chunk is
// run-length encoded into (interval, weight) columns; each higher level
// shifts the columns one bit and merges equal neighbours, which sorted
// order keeps adjacent. Every level then adds each distinct interval
// once, with the summed weight of the elements it covers.
func (s *Sketch) addRuns(sc *batchScratch, chunk []uint64, delta int64) {
	ivs, ws := sc.ivs[:len(chunk)], sc.ws[:len(chunk)]
	copy(ivs, chunk)
	core.RadixSort(ivs, sc.tmp[:], s.bits)
	for i := range ws {
		ws[i] = delta
	}
	k := shiftMerge(ivs, ws, 0)
	for l := 0; l < s.bits; l++ {
		if l > 0 {
			k = shiftMerge(ivs[:k], ws[:k], 1)
		}
		if ex := s.lvls[l].exact; ex != nil {
			for i, iv := range ivs[:k] {
				ex[iv] += ws[i]
			}
		} else {
			s.lvls[l].sk.AddWeighted(ivs[:k], ws[:k])
		}
	}
}

// shiftMerge shifts the sorted, non-empty ivs right by sh bits in place
// and merges equal neighbours, summing their weights in ws. It returns
// the number of runs left at the front of both columns.
func shiftMerge(ivs []uint64, ws []int64, sh uint) int {
	ws = ws[:len(ivs)]
	iv, w := ivs[0]>>sh, ws[0]
	k := 0
	for i := 1; i < len(ivs); i++ {
		if v := ivs[i] >> sh; v != iv {
			ivs[k], ws[k] = iv, w
			k++
			iv, w = v, 0
		}
		w += ws[i]
	}
	ivs[k], ws[k] = iv, w
	return k + 1
}

// MergeSummary implements core.Mergeable. It leaves other unchanged.
func (s *Sketch) MergeSummary(other core.Summary) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("dyadic: cannot merge a %T", other)
	}
	return s.Merge(o)
}
