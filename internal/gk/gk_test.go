package gk

import (
	"math"
	"slices"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/streamgen"
)

// variants under test, constructed per eps.
func variants(eps float64) map[string]core.CashRegister {
	return map[string]core.CashRegister{
		"Adaptive": NewAdaptive(eps),
		"Theory":   NewTheory(eps),
		"Array":    NewArray(eps),
	}
}

func feed(s core.CashRegister, data []uint64) {
	for _, x := range data {
		s.Update(x)
	}
}

// seqOf exposes the internal tuple sequence of a variant for invariant checks.
func seqOf(s core.CashRegister) tupleSeq {
	switch v := s.(type) {
	case *Adaptive:
		return v.seq
	case *Theory:
		return v.seq
	case *Array:
		v.Flush()
		return v.seq
	}
	panic("unknown variant")
}

func TestBandBasics(t *testing.T) {
	const p = 100
	if got := band(p, p); got != 0 {
		t.Errorf("band(p, p) = %d, want 0", got)
	}
	if got := band(0, p); got != 64 {
		t.Errorf("band(0, p) = %d, want 64", got)
	}
	// Bands must be monotone non-increasing in Δ.
	prev := 64
	for del := int64(1); del <= p; del++ {
		b := band(del, p)
		if b > prev {
			t.Fatalf("band not monotone: band(%d)=%d after band(%d)=%d", del, b, del-1, prev)
		}
		prev = b
	}
}

func TestBandCoversAllDeltas(t *testing.T) {
	// Every Δ in [0, p] must land in some band without panicking.
	for _, p := range []int64{1, 2, 3, 10, 127, 1000} {
		for del := int64(0); del <= p; del++ {
			b := band(del, p)
			if b < 0 || b > 64 {
				t.Fatalf("band(%d, %d) = %d out of range", del, p, b)
			}
		}
	}
}

func TestAllVariantsErrorGuarantee(t *testing.T) {
	const n = 20000
	const eps = 0.01
	for _, gen := range []streamgen.Generator{
		streamgen.Uniform{Bits: 24, Seed: 1},
		streamgen.Sorted{Inner: streamgen.Uniform{Bits: 24, Seed: 2}},
		streamgen.Reversed{Inner: streamgen.Uniform{Bits: 24, Seed: 3}},
		streamgen.MPCATLike{Seed: 4},
		streamgen.Normal{Bits: 20, Sigma: 0.1, Seed: 5},
	} {
		data := streamgen.Generate(gen, n)
		oracle := exact.New(data)
		for name, s := range variants(eps) {
			feed(s, data)
			maxErr, _ := oracle.EvaluateSummary(s, eps)
			if maxErr > eps {
				t.Errorf("%s on %s: max error %v exceeds ε=%v", name, gen.Name(), maxErr, eps)
			}
		}
	}
}

func TestInvariantsThroughoutStream(t *testing.T) {
	const eps = 0.05
	data := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 7}, 5000)
	for name, s := range variants(eps) {
		var prefix []uint64
		for i, x := range data {
			s.Update(x)
			prefix = append(prefix, x)
			if (i+1)%500 == 0 {
				sorted := slices.Clone(prefix)
				slices.Sort(sorted)
				p := threshold(eps, int64(i+1))
				if err := checkInvariants(seqOf(s), sorted, p); err != nil {
					t.Fatalf("%s after %d updates: %v", name, i+1, err)
				}
			}
		}
	}
}

func TestDuplicateHeavyStream(t *testing.T) {
	const eps = 0.02
	data := make([]uint64, 10000)
	for i := range data {
		data[i] = uint64(i % 7) // 7 distinct values
	}
	oracle := exact.New(data)
	for name, s := range variants(eps) {
		feed(s, data)
		maxErr, _ := oracle.EvaluateSummary(s, eps)
		if maxErr > eps {
			t.Errorf("%s on duplicates: max error %v > ε", name, maxErr)
		}
	}
}

func TestConstantStream(t *testing.T) {
	const eps = 0.05
	for name, s := range variants(eps) {
		for i := 0; i < 5000; i++ {
			s.Update(42)
		}
		if q := s.Quantile(0.5); q != 42 {
			t.Errorf("%s: median of constant stream = %d, want 42", name, q)
		}
		if n := s.Count(); n != 5000 {
			t.Errorf("%s: Count = %d", name, n)
		}
	}
}

func TestSingleElement(t *testing.T) {
	for name, s := range variants(0.1) {
		s.Update(9)
		for _, phi := range []float64{0.01, 0.5, 0.99} {
			if q := s.Quantile(phi); q != 9 {
				t.Errorf("%s: quantile(%v) of single element = %d", name, phi, q)
			}
		}
	}
}

func TestEmptyQuantilePanics(t *testing.T) {
	for name, s := range variants(0.1) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Quantile on empty summary did not panic", name)
				}
			}()
			s.Quantile(0.5)
		}()
	}
}

func TestBadEpsPanics(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, math.NaN()} {
		for _, mk := range []func(float64) core.CashRegister{
			func(e float64) core.CashRegister { return NewAdaptive(e) },
			func(e float64) core.CashRegister { return NewTheory(e) },
			func(e float64) core.CashRegister { return NewArray(e) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("constructor with eps=%v did not panic", eps)
					}
				}()
				mk(eps)
			}()
		}
	}
}

func TestSpaceSublinear(t *testing.T) {
	const eps = 0.01
	const n = 50000
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 8}, n)
	for name, s := range variants(eps) {
		feed(s, data)
		space := s.SpaceBytes()
		raw := int64(n) * core.WordBytes
		if space <= 0 {
			t.Errorf("%s: non-positive space %d", name, space)
		}
		if space > raw/4 {
			t.Errorf("%s: space %dB not sublinear vs raw %dB", name, space, raw)
		}
	}
}

func TestAdaptiveHeapIntegrity(t *testing.T) {
	s := NewAdaptive(0.05)
	data := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 9}, 3000)
	for i, x := range data {
		s.Update(x)
		if (i+1)%250 == 0 && !s.checkHeap() {
			t.Fatalf("heap invariant broken after %d updates", i+1)
		}
	}
}

func TestAdaptiveTupleCountGrowth(t *testing.T) {
	// GKAdaptive's list should stay far below n on random data.
	s := NewAdaptive(0.01)
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 10}, 50000)
	feed(s, data)
	if tc := s.TupleCount(); tc > 4000 {
		t.Errorf("tuple count %d unexpectedly large for ε=0.01, n=50k", tc)
	}
}

func TestTheoryCompressBoundsSpace(t *testing.T) {
	// The theory variant must respect O((1/ε) log(εn)) up to constants:
	// 11/(2ε)·log2(2εn) is the paper's bound.
	const eps = 0.02
	const n = 100000
	s := NewTheory(eps)
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 11}, n)
	feed(s, data)
	bound := 11.0 / (2 * eps) * math.Log2(2*eps*n)
	if float64(s.TupleCount()) > bound {
		t.Errorf("GKTheory tuples %d exceed GK bound %v", s.TupleCount(), bound)
	}
}

func TestArrayFlushIdempotent(t *testing.T) {
	s := NewArray(0.05)
	data := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 12}, 1000)
	feed(s, data)
	s.Flush()
	before := s.TupleCount()
	s.Flush()
	if s.TupleCount() != before {
		t.Error("Flush on empty buffer changed the summary")
	}
	if got, want := s.Count(), int64(1000); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestArrayQueryMidBuffer(t *testing.T) {
	// Queries must see buffered but unflushed elements.
	s := NewArray(0.1)
	for i := 1; i <= 10; i++ {
		s.Update(uint64(i))
	}
	if q := s.Quantile(0.5); q < 4 || q > 7 {
		t.Errorf("median of 1..10 = %d, want ≈ 5", q)
	}
}

func TestRankEstimates(t *testing.T) {
	const eps = 0.01
	const n = 20000
	data := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 13}, n)
	oracle := exact.New(data)
	for name, s := range variants(eps) {
		feed(s, data)
		for _, probe := range []uint64{1 << 18, 1 << 19, 3 << 18} {
			got := s.Rank(probe)
			want := oracle.Rank(probe)
			if math.Abs(float64(got-want)) > 2*eps*n {
				t.Errorf("%s: Rank(%d) = %d, exact %d (off > 2εn)", name, probe, got, want)
			}
		}
	}
}

func TestSortedOrderStillAccurate(t *testing.T) {
	// Figure 8's adversarial order: ascending input.
	const eps = 0.01
	const n = 30000
	data := streamgen.Generate(streamgen.Sorted{Inner: streamgen.Uniform{Bits: 32, Seed: 14}}, n)
	oracle := exact.New(data)
	for name, s := range variants(eps) {
		feed(s, data)
		maxErr, _ := oracle.EvaluateSummary(s, eps)
		if maxErr > eps {
			t.Errorf("%s on sorted input: max error %v > ε", name, maxErr)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	data := streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: 15}, 10000)
	for name := range variants(0.01) {
		a := variants(0.01)[name]
		b := variants(0.01)[name]
		feed(a, data)
		feed(b, data)
		for _, phi := range core.EvenPhis(0.1) {
			if a.Quantile(phi) != b.Quantile(phi) {
				t.Errorf("%s: nondeterministic quantile at phi=%v", name, phi)
			}
		}
	}
}

func TestQuantileMonotoneInPhi(t *testing.T) {
	data := streamgen.Generate(streamgen.MPCATLike{Seed: 16}, 20000)
	for name, s := range variants(0.01) {
		feed(s, data)
		prev := uint64(0)
		for _, phi := range core.EvenPhis(0.02) {
			q := s.Quantile(phi)
			if q < prev {
				t.Errorf("%s: quantiles not monotone at phi=%v (%d < %d)", name, phi, q, prev)
				break
			}
			prev = q
		}
	}
}

func BenchmarkAdaptiveUpdate(b *testing.B) { benchUpdate(b, NewAdaptive(0.001)) }
func BenchmarkTheoryUpdate(b *testing.B)   { benchUpdate(b, NewTheory(0.001)) }
func BenchmarkArrayUpdate(b *testing.B)    { benchUpdate(b, NewArray(0.001)) }

func benchUpdate(b *testing.B, s core.CashRegister) {
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(data[i&(1<<16-1)])
	}
}

func BenchmarkAdaptiveUpdateBatch(b *testing.B) { benchUpdateBatch(b, NewAdaptive(0.001)) }
func BenchmarkTheoryUpdateBatch(b *testing.B)   { benchUpdateBatch(b, NewTheory(0.001)) }

// benchUpdateBatch drives the sort-merge-rebuild path, the heaviest
// consumer of the tcols scratch columns and the skiplist arena. Once
// the workspace has warmed up a batch costs 4 allocations (480 B per
// 8192-element batch, go1.24 linux/amd64): the rebuild's fresh
// skip-list header and RNG. ReportAllocs only prints that count; the
// root package's TestSteadyStateAllocations holds it under a ceiling.
func benchUpdateBatch(b *testing.B, s core.BatchCashRegister) {
	data := streamgen.Generate(streamgen.Uniform{Bits: 32, Seed: 1}, 1<<13)
	s.UpdateBatch(data) // warm the scratch columns, arena and node pool
	b.SetBytes(int64(len(data)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateBatch(data)
	}
}
