package qdigest

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/equivtest"
	"streamquantiles/internal/streamgen"
)

// mapDigest is the hash-map q-digest the sorted node columns replaced,
// kept as the reference they must match: the same buffer, the same
// drain and COMPRESS triggers, a COMPRESS over per-level worklists in
// map order, and the codec with its id sort.
type mapDigest struct {
	bits         int
	u            uint64
	k            int64
	eps          float64
	n            int64
	nodes        map[uint64]int64
	buf          []uint64
	nextCmp      int64
	compressions int64
}

func newMapDigest(eps float64, bits int) *mapDigest {
	return &mapDigest{
		bits:    bits,
		u:       uint64(1) << bits,
		k:       int64(math.Ceil(float64(bits) / eps)),
		eps:     eps,
		nodes:   make(map[uint64]int64),
		buf:     make([]uint64, 0, bufCap),
		nextCmp: 1,
	}
}

func (m *mapDigest) Update(x uint64) {
	m.n++
	m.buf = append(m.buf, x)
	if len(m.buf) == cap(m.buf) || m.n >= m.nextCmp {
		m.drain()
	}
}

func (m *mapDigest) drain() {
	for _, x := range m.buf {
		m.nodes[m.u+x]++
	}
	m.buf = m.buf[:0]
	if m.n >= m.nextCmp || int64(len(m.nodes)) > 6*m.k {
		m.compress()
		m.nextCmp = 2 * m.n
	}
}

func (m *mapDigest) compress() {
	m.compressions++
	capacity := m.n / m.k
	if capacity <= 0 {
		return
	}
	levels := make([][]uint64, m.bits+1)
	for id := range m.nodes {
		lv := (&Digest{bits: m.bits}).level(id)
		levels[lv] = append(levels[lv], id)
	}
	for lv := m.bits; lv >= 1; lv-- {
		for _, id := range levels[lv] {
			c, ok := m.nodes[id]
			if !ok {
				continue // already folded as a sibling
			}
			sib, par := id^1, id>>1
			if total := c + m.nodes[sib] + m.nodes[par]; total <= capacity {
				m.nodes[par] = total
				delete(m.nodes, id)
				delete(m.nodes, sib)
				levels[lv-1] = append(levels[lv-1], par)
			}
		}
	}
}

func (m *mapDigest) Merge(other *mapDigest) {
	m.drain()
	other.drain()
	for id, w := range other.nodes {
		m.nodes[id] += w
	}
	m.n += other.n
	m.compress()
	m.nextCmp = 2 * m.n
}

func (m *mapDigest) MarshalBinary() []byte {
	e := core.EncoderFrom(nil)
	e.U64(codecVersion)
	e.F64(m.eps)
	e.U64(uint64(m.bits))
	e.I64(m.n)
	e.I64(m.nextCmp)
	e.I64(m.compressions)
	ids := make([]uint64, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.I64(m.nodes[id])
	}
	e.U64s(m.buf)
	return e.Bytes()
}

func (m *mapDigest) snapshot() *core.QuerySnapshot {
	m.drain()
	return nodeSetSnapshot(m.bits, m.n, m.nodes)
}

// mustMatch asserts that d and the reference encode identically and
// agree on the compression count and the node count. It reads d's node
// count without draining, so it never runs a COMPRESS on one side only.
func mustMatch(t *testing.T, where string, d *Digest, m *mapDigest) {
	t.Helper()
	got, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, m.MarshalBinary()) {
		t.Fatalf("%s (n=%d): encoding differs from the map reference", where, d.n)
	}
	if d.Compressions() != m.compressions || d.stored() != len(m.nodes) {
		t.Fatalf("%s (n=%d): compressions %d, nodes %d; reference %d, %d",
			where, d.n, d.Compressions(), d.stored(), m.compressions, len(m.nodes))
	}
	if err := d.Invariants(); err != nil {
		t.Fatalf("%s (n=%d): %v", where, d.n, err)
	}
}

// mustAnswer asserts that every query path of d answers as the
// reference's snapshot, and that d's own snapshot is that snapshot
// column for column.
func mustAnswer(t *testing.T, where string, d *Digest, m *mapDigest) {
	t.Helper()
	d.Flush()
	ref := m.snapshot()
	mustMatch(t, where, d, m)
	if d.n == 0 {
		return
	}
	equivtest.Check(t, d, ref)
	var qs core.QuerySnapshot
	d.AppendQuerySnapshot(&qs)
	if !slices.Equal(qs.QVals, ref.QVals) || !slices.Equal(qs.QKeys, ref.QKeys) ||
		!slices.Equal(qs.RVals, ref.RVals) || !slices.Equal(qs.RRanks, ref.RRanks) {
		t.Fatalf("%s (n=%d): query snapshot differs from the reference", where, d.n)
	}
	if d.NodeCount() != len(m.nodes) {
		t.Fatalf("%s: NodeCount %d, reference %d", where, d.NodeCount(), len(m.nodes))
	}
}

// lockstep feeds xs to d and the reference one element at a time,
// matching them after every drain and answering every query alike at
// about `answers` evenly spaced drains and at the end. It returns how
// many COMPRESS passes the node-count trigger fired rather than the
// doubling one.
func lockstep(t *testing.T, d *Digest, m *mapDigest, xs []uint64, answers int) (sizeTriggered int) {
	t.Helper()
	drains := len(xs)/bufCap + 64
	every := max(drains/max(answers, 1), 1)
	drained := 0
	for _, x := range xs {
		doubling := d.n+1 >= d.nextCmp
		before := d.Compressions()
		d.Update(x)
		m.Update(x)
		if len(d.buf) != 0 || len(m.buf) != 0 {
			if len(d.buf) != len(m.buf) {
				t.Fatalf("n=%d: pending %d, reference %d", d.n, len(d.buf), len(m.buf))
			}
			continue
		}
		if d.Compressions() > before && !doubling {
			sizeTriggered++
		}
		mustMatch(t, "drain", d, m)
		if drained++; answers > 0 && drained%every == 0 {
			mustAnswer(t, "drain", d, m)
		}
	}
	mustAnswer(t, "end", d, m)
	return sizeTriggered
}

func TestColumnsMatchMapReference(t *testing.T) {
	reversed := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 12}, 60000)
	slices.Sort(reversed)
	slices.Reverse(reversed)
	near62 := topOfUniverse{streamgen.Zipf{S: 1.2, Bits: maxBits, Seed: 15}, maxBits}
	for _, tc := range []struct {
		name string
		eps  float64
		bits int
		xs   []uint64
	}{
		{"sorted", 0.01, 16, streamgen.Generate(streamgen.Sorted{Inner: streamgen.Uniform{Bits: 16, Seed: 11}}, 60000)},
		{"reversed", 0.005, 20, reversed},
		{"zipf", 0.005, 20, streamgen.Generate(streamgen.Zipf{S: 1.5, Bits: 20, Seed: 13}, 80000)},
		{"one-bit", 0.01, 1, streamgen.Generate(streamgen.Uniform{Bits: 1, Seed: 14}, 5000)},
		{"max-bits", 0.01, maxBits, streamgen.Generate(near62, 30000)},
		{"max-bits-uniform", 0.002, maxBits, streamgen.Generate(streamgen.Uniform{Bits: maxBits, Seed: 16}, 30000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lockstep(t, New(tc.eps, tc.bits), newMapDigest(tc.eps, tc.bits), tc.xs, 6)
		})
	}
}

// TestColumnsMatchMapReferenceRoster runs the benchmark roster's shape,
// which crosses both COMPRESS triggers: the stream doubling and the node
// count passing 6k (between n ≈ 229k and 262k).
func TestColumnsMatchMapReferenceRoster(t *testing.T) {
	if testing.Short() {
		t.Skip("roster-sized lockstep run")
	}
	xs := streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: 1}, 1<<18)
	d, m := New(0.001, 24), newMapDigest(0.001, 24)
	if sized := lockstep(t, d, m, xs, 4); sized == 0 {
		t.Fatal("the node-count trigger never fired")
	}
}

func TestColumnsMatchMapReferenceMerge(t *testing.T) {
	const eps, bits = 0.005, 20
	feedBoth := func(g streamgen.Generator, n int) (*Digest, *mapDigest) {
		d, m := New(eps, bits), newMapDigest(eps, bits)
		lockstep(t, d, m, streamgen.Generate(g, n), 0)
		return d, m
	}
	t.Run("pair", func(t *testing.T) {
		a, ma := feedBoth(streamgen.Uniform{Bits: bits, Seed: 21}, 40011)
		b, mb := feedBoth(streamgen.Zipf{S: 1.1, Bits: bits, Seed: 22}, 35017)
		a.Merge(b)
		ma.Merge(mb)
		mustAnswer(t, "merged", a, ma)
		mustAnswer(t, "merge partner", b, mb)
		// The merged digest keeps ingesting in step.
		lockstep(t, a, ma, streamgen.Generate(streamgen.Normal{Bits: bits, Sigma: 0.1, Seed: 23}, 30000), 2)
	})
	t.Run("self", func(t *testing.T) {
		a, ma := feedBoth(streamgen.Uniform{Bits: bits, Seed: 24}, 20000)
		a.Merge(a)
		ma.Merge(ma)
		mustAnswer(t, "self-merged", a, ma)
	})
	t.Run("sharded-fold", func(t *testing.T) {
		// A P=4 sharded fold: each shard is merged into a fresh digest,
		// then the partials are reduced pairwise, 1 then 2 apart.
		const p = 4
		xs := streamgen.Generate(streamgen.Normal{Bits: bits, Sigma: 0.2, Seed: 25}, 90000)
		var shards [p]*Digest
		var mshards [p]*mapDigest
		for i := range shards {
			shards[i], mshards[i] = New(eps, bits), newMapDigest(eps, bits)
		}
		for i, x := range xs {
			shards[i*7%p].Update(x)
			mshards[i*7%p].Update(x)
		}
		var parts [p]*Digest
		var mparts [p]*mapDigest
		for i := range parts {
			parts[i], mparts[i] = New(eps, bits), newMapDigest(eps, bits)
			parts[i].Merge(shards[i])
			mparts[i].Merge(mshards[i])
			mustMatch(t, "shard", shards[i], mshards[i])
		}
		for stride := 1; stride < p; stride *= 2 {
			for i := 0; i+stride < p; i += 2 * stride {
				parts[i].Merge(parts[i+stride])
				mparts[i].Merge(mparts[i+stride])
				mustMatch(t, "partial", parts[i], mparts[i])
			}
		}
		mustAnswer(t, "fold", parts[0], mparts[0])
	})
}

func TestColumnsMatchMapReferenceCodec(t *testing.T) {
	const eps, bits = 0.002, 24
	d, m := New(eps, bits), newMapDigest(eps, bits)
	xs := streamgen.Generate(streamgen.Uniform{Bits: bits, Seed: 31}, 70000)
	// Stop mid-buffer so the pending updates travel through the codec.
	lockstep(t, d, m, xs[:len(xs)-300], 0)
	for _, x := range xs[len(xs)-300:] {
		d.Update(x)
		m.Update(x)
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(0.5, 1)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "restored", restored, m)
	lockstep(t, restored, m, streamgen.Generate(streamgen.Zipf{S: 1.3, Bits: bits, Seed: 32}, 50000), 3)
}
