package qdigest

import (
	"bytes"
	"errors"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/streamgen"
)

func TestCodecRoundTrip(t *testing.T) {
	d := New(0.01, 20)
	feed(d, streamgen.Generate(streamgen.Normal{Bits: 20, Sigma: 0.1, Seed: 90}, 30000))
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(0.5, 4)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != d.Count() || restored.K() != d.K() ||
		restored.UniverseBits() != d.UniverseBits() {
		t.Fatal("parameters not restored")
	}
	for _, phi := range core.EvenPhis(0.05) {
		if restored.Quantile(phi) != d.Quantile(phi) {
			t.Fatalf("quantile(%v) differs after round trip", phi)
		}
	}
	if restored.TotalWeight() != d.TotalWeight() {
		t.Error("weight not conserved through codec")
	}
}

func TestCodecDeterministicEncoding(t *testing.T) {
	// Equal digests must produce identical bytes (nodes are sorted).
	mk := func() *Digest {
		d := New(0.02, 16)
		feed(d, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 91}, 20000))
		return d
	}
	a, _ := mk().MarshalBinary()
	b, _ := mk().MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("equal digests encoded differently")
	}
}

func TestCodecContinueAndMergeAfterRestore(t *testing.T) {
	d := New(0.02, 16)
	feed(d, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 92}, 10000))
	blob, _ := d.MarshalBinary()
	restored := New(0.5, 4)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// Continue updating and merge with a fresh digest: the restored
	// instance must be fully operational.
	feed(restored, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 93}, 10000))
	other := New(0.02, 16)
	feed(other, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 94}, 10000))
	restored.Merge(other)
	if restored.Count() != 30000 {
		t.Fatalf("count %d after continue+merge", restored.Count())
	}
	if restored.TotalWeight() != 30000 {
		t.Fatalf("weight %d after continue+merge", restored.TotalWeight())
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	d := New(0.05, 12)
	feed(d, streamgen.Generate(streamgen.Uniform{Bits: 12, Seed: 95}, 3000))
	blob, _ := d.MarshalBinary()
	for cut := 0; cut < len(blob); cut += 5 {
		var b Digest
		if err := b.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("accepted truncated input of %d bytes", cut)
		}
	}
	// Node id outside the tree must be rejected.
	bad := New(0.05, 12)
	bad.nodes.push(1<<40, 5)
	blob2, _ := bad.MarshalBinary()
	var b Digest
	if err := b.UnmarshalBinary(blob2); err == nil {
		t.Error("accepted out-of-tree node id")
	}
}

// nodeBlob encodes a digest over [0, 16) holding the given leaf-level
// nodes in the given order, each of weight 1, with consistent counts.
func nodeBlob(ids ...uint64) []byte {
	e := core.EncoderFrom(nil)
	e.U64(codecVersion)
	e.F64(0.1)
	e.U64(4)
	e.I64(int64(len(ids)))
	e.I64(2 * int64(len(ids)))
	e.I64(1)
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.I64(1)
	}
	e.U64s(nil)
	return e.Bytes()
}

func TestCodecRejectsUnorderedIds(t *testing.T) {
	var d Digest
	if err := d.UnmarshalBinary(nodeBlob(17, 18, 20)); err != nil {
		t.Fatalf("ascending ids rejected: %v", err)
	}
	if err := d.Invariants(); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"duplicate": nodeBlob(17, 18, 18),
		"unsorted":  nodeBlob(17, 20, 18),
	} {
		if err := d.UnmarshalBinary(blob); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s ids: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestCodecRejectsImplausibleNodeCount(t *testing.T) {
	e := core.EncoderFrom(nil)
	e.U64(codecVersion)
	e.F64(0.1)
	e.U64(4)
	e.I64(0)
	e.I64(1)
	e.I64(0)
	e.U64(1 << 40) // node count far beyond the bytes that follow
	var d Digest
	if err := d.UnmarshalBinary(e.Bytes()); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestInvariantsRejectUnorderedIds(t *testing.T) {
	d := New(0.1, 4)
	d.nodes.push(18, 1)
	d.nodes.push(17, 1)
	d.n = 2
	if d.Invariants() == nil {
		t.Error("unsorted columns passed")
	}
	d = New(0.1, 4)
	d.nodes.push(17, 1)
	d.side.push(17, 1)
	d.n = 2
	if d.Invariants() == nil {
		t.Error("a leaf stored in both the columns and the side run passed")
	}
}
