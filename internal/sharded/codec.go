package sharded

import (
	"encoding"
	"fmt"

	"streamquantiles/internal/core"
)

// Binary codec for the sharded containers, so the checkpoint layer can
// persist a whole sharded summary — including mid-reshard state: the
// generation id, every live shard, and every frozen component travel in
// one frame. Marshal runs under the topology read lock, so a checkpoint
// taken concurrently with a Reshard/Retarget observes either the
// complete pre-swap or the complete post-swap topology, never a torn
// hybrid (the crash matrix pins this).
//
// Layout (core.Encoder varints):
//
//	U64 codec version (1)
//	U64 generation id
//	U64 P, then P × Blob (per-shard summary encoding)
//	U64 component count, then count × Blob (frozen component encodings;
//	    always 0 for a turnstile)
//
// Both directions fan the per-summary work out to a GOMAXPROCS-bounded
// worker pool (see fanout): each encode worker holds only its own
// shard's lock for the duration of that shard's marshal — stop the
// shard, not the world — and writes into a pooled buffer; the frames
// are then assembled in shard order into one exactly-sized output, so
// the bytes are identical to the sequential version-1 encoding and the
// committed goldens gate that. Decode splits the length-prefixed
// sub-blobs in one cheap sequential scan, then decodes them into
// per-worker fresh() summaries concurrently.
//
// Decoding builds summaries through the container's own factory and
// feeds each blob to its UnmarshalBinary — the per-summary codecs are
// self-describing (ε, seeds, k travel in the blob), so a decoded shard
// or component restores the exact configuration it was saved with even
// when the live factory has since been retargeted.
const shardedCodecVersion = 1

// maxDecodedShards bounds the shard and component counts a decoder will
// allocate for, far above any sane topology: hostile length prefixes
// must not translate into huge allocations (the SQ006 contract).
const maxDecodedShards = 1 << 16

// MarshalBinary implements encoding.BinaryMarshaler with a
// GOMAXPROCS-wide worker pool.
func (c *container) MarshalBinary() ([]byte, error) {
	return c.MarshalBinaryWorkers(0)
}

// MarshalBinaryWorkers is MarshalBinary with an explicit worker bound:
// 0 (or anything ≥ GOMAXPROCS) uses GOMAXPROCS workers, 1 marshals
// sequentially. The bytes are identical for every worker count.
func (c *container) MarshalBinaryWorkers(workers int) ([]byte, error) {
	c.topo.RLock()
	defer c.topo.RUnlock()
	g := c.gen.Load()
	nShards := len(g.shards)
	comps := c.ret.comps
	parts := nShards + len(comps)
	blobs := make([][]byte, parts)
	bufs := make([]*[]byte, parts)
	for i := range bufs {
		bufs[i] = core.EncodeBufPool.Get().(*[]byte)
	}
	defer func() {
		for _, b := range bufs {
			core.EncodeBufPool.Put(b)
		}
	}()
	err := fanout(parts, workers, func(i int) error {
		var blob []byte
		var err error
		if i < nShards {
			sh := &g.shards[i]
			done := observe(&c.ckptObs, i)
			sh.mu.Lock()
			blob, err = marshalSummaryInto(sh.s, (*bufs[i])[:0])
			sh.mu.Unlock()
			done()
			if err != nil {
				return fmt.Errorf("sharded: marshal shard %d: %w", i, err)
			}
		} else {
			comp := comps[i-nShards]
			comp.mu.Lock()
			blob, err = marshalSummaryInto(comp.s, (*bufs[i])[:0])
			comp.mu.Unlock()
			if err != nil {
				return fmt.Errorf("sharded: marshal component %d: %w", i-nShards, err)
			}
		}
		*bufs[i] = blob // keep the grown buffer for the pool
		blobs[i] = blob
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleSharded(g.id, nShards, blobs), nil
}

// assembleSharded concatenates the per-summary blobs into the
// version-1 frame, in shard order, with one exactly-sized allocation.
func assembleSharded(genID uint64, nShards int, blobs [][]byte) []byte {
	nComps := len(blobs) - nShards
	need := core.UvarintLen(shardedCodecVersion) + core.UvarintLen(genID) +
		core.UvarintLen(uint64(nShards)) + core.UvarintLen(uint64(nComps))
	for _, b := range blobs {
		need += core.UvarintLen(uint64(len(b))) + len(b)
	}
	e := core.EncoderFrom(make([]byte, 0, need))
	e.U64(shardedCodecVersion)
	e.U64(genID)
	e.U64(uint64(nShards))
	for _, b := range blobs[:nShards] {
		e.Blob(b)
	}
	e.U64(uint64(nComps))
	for _, b := range blobs[nShards:] {
		e.Blob(b)
	}
	return e.Bytes()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: it replaces
// the container's entire state (topology generation, shards, frozen
// components) with the decoded one, keeping the current factory and its
// probed capabilities.
func (c *container) UnmarshalBinary(data []byte) error {
	return c.UnmarshalBinaryWorkers(data, 0)
}

// UnmarshalBinaryWorkers is UnmarshalBinary with an explicit worker
// bound; see MarshalBinaryWorkers. A turnstile never freezes
// components, so a frame carrying any is corrupt for it.
func (c *container) UnmarshalBinaryWorkers(data []byte, workers int) error {
	c.topo.Lock()
	defer c.topo.Unlock()
	cur := c.gen.Load()
	d := core.NewDecoder(data)
	id, p, err := decodeShardedHeader(d)
	if err != nil {
		return err
	}
	shardBlobs := make([][]byte, p)
	for i := range shardBlobs {
		shardBlobs[i] = d.Blob()
		if err := d.Err(); err != nil {
			return fmt.Errorf("sharded: decode shard %d: %w", i, err)
		}
	}
	nComps := d.U64()
	if nComps != 0 && !c.freezes && d.Err() == nil {
		return core.Corruptf("sharded: turnstile encoding carries %d components", nComps)
	}
	if nComps > maxDecodedShards {
		return core.Corruptf("sharded: component count %d implausible", nComps)
	}
	compBlobs := make([][]byte, nComps)
	for i := range compBlobs {
		compBlobs[i] = d.Blob()
		if err := d.Err(); err != nil {
			return fmt.Errorf("sharded: decode component %d: %w", i, err)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return core.Corruptf("sharded: %d trailing bytes", d.Remaining())
	}
	next := &generation{id: id, shards: make([]shard, p), fresh: cur.fresh, caps: cur.caps}
	comps := make([]*retiredComp, len(compBlobs))
	err = fanout(p+len(compBlobs), workers, func(i int) error {
		s := cur.fresh()
		if i < p {
			if err := unmarshalSummary(s, shardBlobs[i]); err != nil {
				return fmt.Errorf("sharded: decode shard %d: %w", i, err)
			}
			sh := &next.shards[i]
			sh.mu.Lock()
			sh.s = s
			sh.mu.Unlock()
			return nil
		}
		j := i - p
		if err := unmarshalSummary(s, compBlobs[j]); err != nil {
			return fmt.Errorf("sharded: decode component %d: %w", j, err)
		}
		comps[j] = newRetiredComp(s)
		return nil
	})
	if err != nil {
		return err
	}
	c.gen.Store(next)
	c.ret.comps = comps
	c.ret.ver.Add(1)
	c.q.invalidate()
	return nil
}

// decodeShardedHeader reads and validates the common header.
func decodeShardedHeader(d *core.Decoder) (id uint64, p int, err error) {
	if v := d.U64(); v != shardedCodecVersion {
		if derr := d.Err(); derr != nil {
			return 0, 0, derr
		}
		return 0, 0, core.Corruptf("sharded: unsupported codec version %d", v)
	}
	id = d.U64()
	np := d.U64()
	if err := d.Err(); err != nil {
		return 0, 0, err
	}
	if np < 1 || np > maxDecodedShards {
		return 0, 0, core.Corruptf("sharded: shard count %d implausible", np)
	}
	return id, int(np), nil
}

// marshalSummaryInto encodes one shard or component summary, appending
// into dst (typically a pooled buffer) when the summary supports the
// append contract.
func marshalSummaryInto(s any, dst []byte) ([]byte, error) {
	if am, ok := s.(core.AppendMarshaler); ok {
		return am.AppendBinary(dst)
	}
	m, ok := s.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("summary %T has no binary encoding", s)
	}
	return m.MarshalBinary()
}

// unmarshalSummary decodes one blob into a fresh factory summary.
func unmarshalSummary(s any, blob []byte) error {
	u, ok := s.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("summary %T has no binary decoding", s)
	}
	return u.UnmarshalBinary(blob)
}
