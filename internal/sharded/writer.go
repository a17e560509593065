package sharded

// Per-goroutine writer handles.
//
// The handle-less write path (Update/UpdateBatch) is safe for any number
// of goroutines but routes through shared hot state: every cash-register
// write bumps the round-robin cursor, and small batches pay one shard
// lock acquisition per call. A Writer moves that cost off the shared
// path entirely: each handle owns an affinity slot (assigned once, at
// acquire) and a writer-local buffer, and touches the container only
// when the buffer fills — one shard-lock acquisition per writerBufLen
// elements, zero shared atomics in steady state. P writers on P cores
// land on P distinct shards (slots are issued round-robin at acquire),
// so the handles scale with the shard count instead of serializing on
// the cursor's cache line.
//
// Handles are NOT safe for concurrent use — one goroutine per handle.
// Flushes go through the same deliver/scatter paths as the handle-less
// API, so a flush that lands on a shard retired by a concurrent
// Reshard/Retarget re-routes against the live generation: count
// conservation is structural, not best-effort. Buffered elements are
// invisible to queries until Flush (or a buffer-full auto-flush); Close
// flushes, so a closed writer never strands data.

// writerBufLen is the writer-local buffer capacity: large enough to
// amortize the shard lock and feed the summaries' native batch kernels,
// small enough (8 KiB of uint64s) to stay cache-resident per writer.
const writerBufLen = 1024

// CashWriter is a per-goroutine ingestion handle for a CashRegister;
// see AcquireWriter.
type CashWriter struct {
	c    *CashRegister
	slot uint64
	buf  []uint64
}

// AcquireWriter returns a new ingestion handle bound to this container.
// Slots are issued round-robin, so the first P handles land on P
// distinct shards. The handle must be used by one goroutine at a time
// and Closed (or Flushed) before its buffered elements are expected to
// be visible to queries.
func (c *CashRegister) AcquireWriter() *CashWriter {
	return &CashWriter{c: c, slot: c.wslot.Add(1) - 1, buf: make([]uint64, 0, writerBufLen)}
}

// Update buffers one element, flushing to the affinity shard when the
// buffer fills.
func (w *CashWriter) Update(x uint64) {
	w.buf = append(w.buf, x)
	if len(w.buf) >= writerBufLen {
		w.Flush()
	}
}

// UpdateBatch buffers xs, flushing as the buffer fills. A batch already
// at or above the buffer size skips the copy and is delivered directly
// (after flushing any buffered prefix, preserving arrival order).
func (w *CashWriter) UpdateBatch(xs []uint64) {
	for len(xs) > 0 {
		if len(w.buf) == 0 && len(xs) >= writerBufLen {
			w.c.deliver(w.slot, xs)
			return
		}
		n := writerBufLen - len(w.buf)
		if n > len(xs) {
			n = len(xs)
		}
		w.buf = append(w.buf, xs[:n]...)
		xs = xs[n:]
		if len(w.buf) >= writerBufLen {
			w.Flush()
		}
	}
}

// Flush delivers the buffered elements to the writer's affinity shard
// in the live generation (re-routing if that shard retired mid-flush)
// and resets the buffer. The summaries copy what they keep, so the
// buffer is reused across flushes without aliasing. It is reset before
// delivery, so a batch the summary rejects by panicking is dropped.
func (w *CashWriter) Flush() {
	if len(w.buf) == 0 {
		return
	}
	buf := w.buf
	w.buf = w.buf[:0]
	w.c.deliver(w.slot, buf)
}

// Buffered returns the number of elements accumulated since the last
// flush — useful for leak tests and harness accounting.
func (w *CashWriter) Buffered() int { return len(w.buf) }

// Close flushes any buffered elements and releases the buffer. Using
// the handle after Close is tolerated (writes re-buffer and still
// land); Close exists so no element can be stranded in a dropped
// handle's buffer.
func (w *CashWriter) Close() {
	w.Flush()
	w.buf = nil
}

// TurnWriter is the per-goroutine ingestion handle for a Turnstile; see
// Turnstile.AcquireWriter. Turnstile routing is by value affinity, so
// the handle has no slot — it buffers insertions and deletions
// separately and scatters each through the container's value-affinity
// batch path on flush.
type TurnWriter struct {
	t    *Turnstile
	ins  []uint64
	dels []uint64
	pt   partition // private scatter scratch; skips the pool round-trip
}

// AcquireWriter returns a new turnstile ingestion handle. One goroutine
// per handle; Close (or Flush) before expecting the buffered operations
// to be visible to queries.
func (t *Turnstile) AcquireWriter() *TurnWriter {
	return &TurnWriter{
		t:    t,
		ins:  make([]uint64, 0, writerBufLen),
		dels: make([]uint64, 0, writerBufLen),
	}
}

// Insert buffers one insertion, flushing when the buffer fills.
func (w *TurnWriter) Insert(x uint64) {
	w.ins = append(w.ins, x)
	if len(w.ins) >= writerBufLen {
		w.Flush()
	}
}

// Delete buffers one deletion, flushing when the buffer fills.
func (w *TurnWriter) Delete(x uint64) {
	w.dels = append(w.dels, x)
	if len(w.dels) >= writerBufLen {
		w.Flush()
	}
}

// InsertBatch buffers xs as insertions, flushing as the buffer fills;
// batches at or above the buffer size scatter directly.
func (w *TurnWriter) InsertBatch(xs []uint64) { w.addBatch(&w.ins, xs, 1) }

// DeleteBatch buffers xs as deletions, flushing as the buffer fills;
// batches at or above the buffer size scatter directly.
func (w *TurnWriter) DeleteBatch(xs []uint64) { w.addBatch(&w.dels, xs, -1) }

func (w *TurnWriter) addBatch(buf *[]uint64, xs []uint64, delta int64) {
	for len(xs) > 0 {
		if len(*buf) == 0 && len(xs) >= writerBufLen {
			if delta > 0 {
				// Direct insert scatters must not overtake buffered ones;
				// an empty insert buffer guarantees that. Buffered deletes
				// may lag — delaying a deletion never violates strictness.
				w.t.scatter(&w.pt, xs, delta)
				return
			}
			// A direct delete scatter must not overtake buffered inserts
			// (the deletions could transiently outrun their insertions on
			// a shard), so drain the insert buffer first.
			w.Flush()
			w.t.scatter(&w.pt, xs, delta)
			return
		}
		n := writerBufLen - len(*buf)
		if n > len(xs) {
			n = len(xs)
		}
		*buf = append(*buf, xs[:n]...)
		xs = xs[n:]
		if len(*buf) >= writerBufLen {
			w.Flush()
		}
	}
}

// Flush scatters the buffered insertions, then the buffered deletions.
// Insertions go first so that an insert/delete pair of a fresh element
// buffered together never leaves a shard transiently negative — the
// flush boundary preserves the strict-turnstile model. Both buffers are
// reset before the first scatter, so a rejected insert batch also drops
// its deletions, which could drive a shard below zero without it.
func (w *TurnWriter) Flush() {
	ins, dels := w.ins, w.dels
	w.ins, w.dels = w.ins[:0], w.dels[:0]
	if len(ins) > 0 {
		w.t.scatter(&w.pt, ins, 1)
	}
	if len(dels) > 0 {
		w.t.scatter(&w.pt, dels, -1)
	}
}

// Buffered returns the number of operations (insertions plus deletions)
// accumulated since the last flush.
func (w *TurnWriter) Buffered() int { return len(w.ins) + len(w.dels) }

// Close flushes and releases the buffers; see CashWriter.Close.
func (w *TurnWriter) Close() {
	w.Flush()
	w.ins, w.dels = nil, nil
	w.pt.byShard = nil
}
