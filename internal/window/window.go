// Package window provides sliding-window quantiles: the summary answers
// φ-quantile queries over (approximately) the most recent W stream
// elements, forgetting older data — the extension of the quantile
// problem studied by Arasu and Manku (PODS 2004), which the paper's
// introduction lists among the problem's variations.
//
// The construction is block-based: the window splits into blocks of
// ⌈εW/2⌉ consecutive elements, each summarized by a Random summary with
// error ε/2; expired blocks are dropped whole. A query answers from the
// union of the live blocks' weighted samples, one merge of their sorted
// runs. Two error sources add up: the sub-summaries contribute ε/2
// relative rank error, and window expiry is quantized to whole blocks,
// contributing at most one block = εW/2 elements. The result is an
// ε-approximate quantile over a window of W′ elements for some
// W ≤ W′ < W + εW/2.
//
// Space is the sum of ~2/ε block summaries. A block stores at most
// min(εW/2, O((1/ε)·log^1.5(1/ε))) words — short blocks are held exactly
// (lazy allocation), long ones compress — so the total is
// min(W, O(ε⁻²·polylog)) words: real compression appears once
// εW/2 exceeds a block summary's exact regime. Arasu and Manku's
// multi-resolution scheme shaves a further 1/ε factor; this simpler
// construction favors clarity and reuses the Random summary.
package window

import (
	"fmt"
	"math"

	"streamquantiles/internal/core"
	"streamquantiles/internal/randalg"
)

// block is one sealed (or in-progress) stretch of the stream.
type block struct {
	end     int64 // stream position one past the block's last element
	summary *randalg.Random
}

// Windowed summarizes the most recent W elements of a stream.
type Windowed struct {
	eps       float64
	window    int64
	blockSize int64
	seed      uint64
	pos       int64 // total elements observed
	blocks    []*block
	cur       *block
}

// New returns a sliding-window summary with error parameter eps over a
// window of the most recent w elements.
func New(eps float64, w int64, seed uint64) *Windowed {
	if math.IsNaN(eps) || eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("window: error parameter %v outside (0, 1)", eps))
	}
	if w < 2 {
		panic(fmt.Sprintf("window: window size %d too small", w))
	}
	bs := int64(math.Ceil(eps * float64(w) / 2))
	if bs < 1 {
		bs = 1
	}
	// At most ⌈W/bs⌉+1 blocks are ever live (expiry drops whole blocks),
	// so the slice never regrows inside Update.
	return &Windowed{
		eps: eps, window: w, blockSize: bs, seed: seed,
		blocks: make([]*block, 0, w/bs+2),
	}
}

// Eps returns the error parameter.
func (w *Windowed) Eps() float64 { return w.eps }

// Window returns the configured window length W.
func (w *Windowed) Window() int64 { return w.window }

// BlockSize returns the expiry granularity ⌈εW/2⌉.
func (w *Windowed) BlockSize() int64 { return w.blockSize }

// Update observes one stream element.
func (w *Windowed) Update(x uint64) {
	if w.cur == nil {
		w.seed++
		w.cur = &block{summary: randalg.NewCompact(w.eps/2, w.seed)}
	}
	w.cur.summary.Update(x)
	w.pos++
	if w.cur.summary.Count() == int64(w.blockSize) {
		w.cur.end = w.pos
		w.blocks = append(w.blocks, w.cur)
		w.cur = nil
	}
	w.expire()
}

// expire drops blocks that lie entirely outside the window.
func (w *Windowed) expire() {
	cutoff := w.pos - w.window
	i := 0
	for i < len(w.blocks) && w.blocks[i].end <= cutoff {
		i++
	}
	if i > 0 {
		w.blocks = append(w.blocks[:0], w.blocks[i:]...)
	}
}

// Count reports the number of elements currently covered: at least
// min(pos, W), at most W + blockSize − 1.
func (w *Windowed) Count() int64 {
	var n int64
	for _, b := range w.blocks {
		n += b.summary.Count()
	}
	if w.cur != nil {
		n += w.cur.summary.Count()
	}
	return n
}

// ListRuns implements core.RunLister: the runs of every live block.
// Every query answers from their union, one run merge, so the blocks
// are never cloned or merged; the sharded containers fold a window's
// blocks with their shards the same way.
func (w *Windowed) ListRuns(rs *core.Runs) {
	for _, b := range w.blocks {
		b.summary.ListRuns(rs)
	}
	if w.cur != nil {
		w.cur.summary.ListRuns(rs)
	}
}

// Quantile returns an estimated φ-quantile over the live window.
func (w *Windowed) Quantile(phi float64) uint64 { return core.RunsQuantile(w, phi) }

// Quantiles extracts a batch of fractions from one merge of the runs.
func (w *Windowed) Quantiles(phis []float64) []uint64 {
	return w.QuantileBatch(phis)
}

// QuantileBatch implements core.QuantileBatcher: one merge of the runs
// answers the whole batch.
func (w *Windowed) QuantileBatch(phis []float64) []uint64 { return core.RunsQuantiles(w, phis) }

// RankBatch implements core.QuantileBatcher.
func (w *Windowed) RankBatch(xs []uint64) []int64 { return core.RunsRanks(w, xs) }

// AppendQuerySnapshot implements core.Snapshotter: the merge of the
// runs, which an epoch-cached snapshot builds once instead of per query.
func (w *Windowed) AppendQuerySnapshot(qs *core.QuerySnapshot) { core.AppendRunsSnapshot(qs, w) }

// Rank returns the estimated number of live elements smaller than x.
func (w *Windowed) Rank(x uint64) int64 { return core.RunsRank(w, x) }

// SpaceBytes reports the footprint: every live block summary plus
// bookkeeping.
func (w *Windowed) SpaceBytes() int64 {
	var bytes int64
	for _, b := range w.blocks {
		bytes += b.summary.SpaceBytes() + 2*core.WordBytes
	}
	if w.cur != nil {
		bytes += w.cur.summary.SpaceBytes() + 2*core.WordBytes
	}
	return bytes + 8*core.WordBytes
}

// BlockCount reports the number of live blocks (test/observability hook).
func (w *Windowed) BlockCount() int {
	n := len(w.blocks)
	if w.cur != nil {
		n++
	}
	return n
}
