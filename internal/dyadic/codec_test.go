package dyadic

import (
	"bytes"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/streamgen"
)

func TestCodecRoundTripAllKinds(t *testing.T) {
	data := streamgen.Generate(streamgen.MPCATLike{Seed: 100}, 20000)
	for _, k := range kinds() {
		s := New(k, 0.02, 24, Config{Seed: 5})
		feed(s, data)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: marshal: %v", k, err)
		}
		var restored Sketch
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%v: unmarshal: %v", k, err)
		}
		if restored.Count() != s.Count() || restored.Kind() != k ||
			restored.Width() != s.Width() || restored.Depth() != s.Depth() {
			t.Fatalf("%v: parameters not restored", k)
		}
		for _, phi := range core.EvenPhis(0.1) {
			if restored.Quantile(phi) != s.Quantile(phi) {
				t.Fatalf("%v: quantile(%v) differs after round trip", k, phi)
			}
		}
		// The restored sketch must keep working: delete everything.
		for _, x := range data {
			restored.Delete(x)
		}
		if restored.Count() != 0 {
			t.Fatalf("%v: count %d after deleting all", k, restored.Count())
		}
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	// Two same-seed sketches over different streams merged must answer
	// like one sketch over the concatenation — exactly, since merging
	// linear sketches is counter addition.
	dataA := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 101}, 15000)
	dataB := streamgen.Generate(streamgen.Normal{Bits: 20, Sigma: 0.2, Seed: 102}, 15000)
	for _, k := range kinds() {
		a := New(k, 0.02, 20, Config{Seed: 6})
		b := New(k, 0.02, 20, Config{Seed: 6})
		whole := New(k, 0.02, 20, Config{Seed: 6})
		feed(a, dataA)
		feed(b, dataB)
		feed(whole, dataA)
		feed(whole, dataB)
		if err := a.Merge(b); err != nil {
			t.Fatalf("%v: merge: %v", k, err)
		}
		if a.Count() != whole.Count() {
			t.Fatalf("%v: merged count %d vs %d", k, a.Count(), whole.Count())
		}
		for _, phi := range core.EvenPhis(0.1) {
			if a.Quantile(phi) != whole.Quantile(phi) {
				t.Fatalf("%v: merged quantile(%v) differs from whole-stream", k, phi)
			}
		}
	}
}

// TestResetEqualsFresh pins core.Linear's Reset: a loaded sketch,
// reset, encodes byte for byte like a freshly built one (sketched and
// exact levels alike, every per-level sketch kind), and a reset target
// that absorbs merges equals the sketch of the merged streams.
func TestResetEqualsFresh(t *testing.T) {
	data := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 103}, 15000)
	for _, k := range kinds() {
		fresh := func() *Sketch { return New(k, 0.02, 20, Config{Seed: 6}) }
		s := fresh()
		feed(s, data)
		s.Reset()
		got, _ := s.MarshalBinary()
		want, _ := fresh().MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: a reset sketch differs from a fresh one", k)
		}
		part, whole := fresh(), fresh()
		feed(part, data)
		feed(whole, data)
		if err := s.Merge(part); err != nil {
			t.Fatalf("%v: merge into a reset sketch: %v", k, err)
		}
		got, _ = s.MarshalBinary()
		want, _ = whole.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: a reset target's merge differs from the whole-stream sketch", k)
		}
	}
}

func TestMergeAccuracy(t *testing.T) {
	// Merged summary must still meet the ε guarantee on the union.
	dataA := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 103}, 20000)
	dataB := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 104}, 20000)
	a := New(DCS, 0.02, 16, Config{Seed: 7})
	b := New(DCS, 0.02, 16, Config{Seed: 7})
	feed(a, dataA)
	feed(b, dataB)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	union := append(append([]uint64{}, dataA...), dataB...)
	oracle := exact.New(union)
	maxErr, _ := oracle.EvaluateSummary(a, 0.02)
	if maxErr > 0.02 {
		t.Errorf("merged DCS max error %v exceeds ε", maxErr)
	}
}

func TestMergeMismatchRejected(t *testing.T) {
	a := New(DCS, 0.02, 16, Config{Seed: 8})
	cases := []*Sketch{
		New(DCM, 0.02, 16, Config{Seed: 8}), // kind
		New(DCS, 0.02, 18, Config{Seed: 8}), // universe
		New(DCS, 0.02, 16, Config{Seed: 9}), // seed → different hashes
		New(DCS, 0.05, 16, Config{Seed: 8}), // eps → different width
	}
	for i, other := range cases {
		if err := a.Merge(other); err == nil {
			t.Errorf("case %d: mismatched merge accepted", i)
		}
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	s := New(DCS, 0.05, 16, Config{Seed: 10})
	feed(s, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 105}, 3000))
	blob, _ := s.MarshalBinary()
	for cut := 0; cut < len(blob); cut += 97 {
		var b Sketch
		if err := b.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("accepted truncated input of %d bytes", cut)
		}
	}
}
