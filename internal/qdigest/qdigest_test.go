package qdigest

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/streamgen"
)

func feed(d *Digest, data []uint64) {
	for _, x := range data {
		d.Update(x)
	}
}

func TestErrorGuarantee(t *testing.T) {
	const n = 30000
	const eps = 0.01
	for _, gen := range []streamgen.Generator{
		streamgen.Uniform{Bits: 16, Seed: 1},
		streamgen.Normal{Bits: 16, Sigma: 0.1, Seed: 2},
		streamgen.Sorted{Inner: streamgen.Uniform{Bits: 16, Seed: 3}},
		streamgen.Zipf{Bits: 16, S: 1.5, Seed: 4},
	} {
		data := streamgen.Generate(gen, n)
		d := New(eps, 16)
		feed(d, data)
		oracle := exact.New(data)
		maxErr, _ := oracle.EvaluateSummary(d, eps)
		if maxErr > eps {
			t.Errorf("%s: max error %v exceeds ε=%v", gen.Name(), maxErr, eps)
		}
	}
}

func TestWeightConservation(t *testing.T) {
	d := New(0.05, 20)
	data := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 5}, 10000)
	for i, x := range data {
		d.Update(x)
		if (i+1)%1000 == 0 {
			if w := d.TotalWeight(); w != int64(i+1) {
				t.Fatalf("weight %d != count %d after %d updates", w, i+1, i+1)
			}
		}
	}
}

func TestWeightConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		d := New(0.1, 16)
		for _, x := range raw {
			d.Update(uint64(x))
		}
		return d.TotalWeight() == int64(len(raw)) && d.Count() == int64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpaceBounded(t *testing.T) {
	// Digest keeps O(k) = O(log(u)/ε) nodes regardless of n.
	const eps = 0.01
	d := New(eps, 20)
	data := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 6}, 200000)
	feed(d, data)
	bound := int(7 * float64(d.K())) // generous constant
	if nc := d.NodeCount(); nc > bound {
		t.Errorf("node count %d exceeds O(k) bound %d", nc, bound)
	}
}

func TestSmallerUniverseSmallerDigest(t *testing.T) {
	// Figure 6's driver: q-digest space scales with log u.
	const eps = 0.005
	const n = 100000
	small := New(eps, 12)
	large := New(eps, 24)
	feed(small, streamgen.Generate(streamgen.Uniform{Bits: 12, Seed: 7}, n))
	feed(large, streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: 7}, n))
	if small.SpaceBytes() >= large.SpaceBytes() {
		t.Errorf("space(u=2^12)=%d not below space(u=2^24)=%d",
			small.SpaceBytes(), large.SpaceBytes())
	}
}

func TestMergePreservesAccuracy(t *testing.T) {
	const eps = 0.01
	const n = 20000
	dataA := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 8}, n)
	dataB := streamgen.Generate(streamgen.Normal{Bits: 16, Sigma: 0.2, Seed: 9}, n)
	a := New(eps, 16)
	b := New(eps, 16)
	feed(a, dataA)
	feed(b, dataB)
	a.Merge(b)

	all := append(append([]uint64{}, dataA...), dataB...)
	oracle := exact.New(all)
	if a.Count() != int64(len(all)) {
		t.Fatalf("merged count %d, want %d", a.Count(), len(all))
	}
	// Merging may add one εn per merge; allow 2ε total.
	maxErr, _ := oracle.EvaluateSummary(a, eps)
	if maxErr > 2*eps {
		t.Errorf("merged digest max error %v exceeds 2ε", maxErr)
	}
}

func TestMergeManyWays(t *testing.T) {
	// Mergeability in arbitrary fan-in: 8 shards merged pairwise as a tree.
	const eps = 0.02
	const per = 5000
	var shards []*Digest
	var all []uint64
	for i := 0; i < 8; i++ {
		data := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: uint64(10 + i)}, per)
		all = append(all, data...)
		d := New(eps, 16)
		feed(d, data)
		shards = append(shards, d)
	}
	for len(shards) > 1 {
		var next []*Digest
		for i := 0; i+1 < len(shards); i += 2 {
			shards[i].Merge(shards[i+1])
			next = append(next, shards[i])
		}
		shards = next
	}
	oracle := exact.New(all)
	maxErr, _ := oracle.EvaluateSummary(shards[0], eps)
	if maxErr > 3*eps {
		t.Errorf("tree-merged digest max error %v exceeds 3ε", maxErr)
	}
}

func TestMergeParameterMismatchPanics(t *testing.T) {
	a := New(0.01, 16)
	b := New(0.01, 18)
	defer func() {
		if recover() == nil {
			t.Error("Merge with different universes did not panic")
		}
	}()
	a.Merge(b)
}

func TestOutOfUniversePanics(t *testing.T) {
	d := New(0.1, 8)
	defer func() {
		if recover() == nil {
			t.Error("Update(256) on 2^8 universe did not panic")
		}
	}()
	d.Update(256)
}

func TestBadParamsPanic(t *testing.T) {
	for _, c := range []struct {
		eps  float64
		bits int
	}{{0, 16}, {1, 16}, {math.NaN(), 16}, {0.1, 0}, {0.1, 63}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v, %d) did not panic", c.eps, c.bits)
				}
			}()
			New(c.eps, c.bits)
		}()
	}
}

func TestEmptyQuantilePanics(t *testing.T) {
	d := New(0.1, 16)
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty digest did not panic")
		}
	}()
	d.Quantile(0.5)
}

func TestConstantStream(t *testing.T) {
	d := New(0.05, 16)
	for i := 0; i < 10000; i++ {
		d.Update(777)
	}
	for _, phi := range []float64{0.01, 0.5, 0.99} {
		q := d.Quantile(phi)
		// q-digest reports interval right endpoints; the reported value
		// must still have rank error ≤ εn, and with all mass at 777 any
		// reported q has rank interval containing every target iff q
		// resolves to a node whose span includes 777.
		oracle := exact.New(constant(777, 10000))
		if e := oracle.QuantileError(q, phi); e > 0.05 {
			t.Errorf("quantile(%v) = %d with error %v", phi, q, e)
		}
	}
}

func constant(v uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestRankAccuracy(t *testing.T) {
	const n = 50000
	const eps = 0.01
	data := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 20}, n)
	d := New(eps, 16)
	feed(d, data)
	oracle := exact.New(data)
	for _, probe := range []uint64{1 << 14, 1 << 15, 3 << 14} {
		got := d.Rank(probe)
		want := oracle.Rank(probe)
		if math.Abs(float64(got-want)) > eps*n {
			t.Errorf("Rank(%d) = %d, exact %d (off > εn)", probe, got, want)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := New(0.01, 20)
	feed(d, streamgen.Generate(streamgen.Normal{Bits: 20, Sigma: 0.15, Seed: 21}, 30000))
	prev := uint64(0)
	for _, phi := range core.EvenPhis(0.02) {
		q := d.Quantile(phi)
		if q < prev {
			t.Fatalf("quantiles not monotone at phi=%v: %d < %d", phi, q, prev)
		}
		prev = q
	}
}

func TestCompressionsAmortized(t *testing.T) {
	// COMPRESS runs O(log n) times from the doubling schedule plus a
	// bounded number of size-triggered passes — far fewer than one per
	// buffer drain (n/bufCap = 128 here).
	d := New(0.01, 20)
	feed(d, streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: 22}, 1<<17))
	if c := d.Compressions(); c > 60 {
		t.Errorf("%d COMPRESS passes for n=2^17; amortization broken", c)
	}
}

func TestSpanAndLevel(t *testing.T) {
	d := New(0.1, 4) // universe [0, 16)
	if lv := d.level(1); lv != 0 {
		t.Errorf("level(root) = %d", lv)
	}
	if lv := d.level(16); lv != 4 {
		t.Errorf("level(first leaf) = %d", lv)
	}
	lo, hi := d.span(1)
	if lo != 0 || hi != 15 {
		t.Errorf("span(root) = [%d,%d], want [0,15]", lo, hi)
	}
	lo, hi = d.span(16)
	if lo != 0 || hi != 0 {
		t.Errorf("span(leaf 16) = [%d,%d], want [0,0]", lo, hi)
	}
	lo, hi = d.span(31)
	if lo != 15 || hi != 15 {
		t.Errorf("span(leaf 31) = [%d,%d], want [15,15]", lo, hi)
	}
	lo, hi = d.span(2)
	if lo != 0 || hi != 7 {
		t.Errorf("span(2) = [%d,%d], want [0,7]", lo, hi)
	}
	lo, hi = d.span(5)
	if lo != 4 || hi != 7 {
		t.Errorf("span(5) = [%d,%d], want [4,7]", lo, hi)
	}
}

func BenchmarkUpdate(b *testing.B) {
	d := New(0.001, 24)
	data := streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: 1}, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(data[i&(1<<16-1)])
	}
}

func BenchmarkQuantile(b *testing.B) {
	d := New(0.001, 24)
	feed(d, streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: 1}, 1<<18))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Quantile(0.5)
	}
}

// TestListRunsMatchesRank pins the run listing that Rank and the
// sharded fold read against the midpoint rule, walked over the stored
// nodes: at every probe, Rank(x) and the rank of the listing's fold
// equal it. The fold's binary search reads the right entries only when
// every run is sorted. Small universes put weight on leaves and in the
// side run.
func TestListRunsMatchesRank(t *testing.T) {
	midpoint := func(d *Digest, x uint64) int64 {
		var r int64
		for _, c := range [2]*cols{&d.nodes, &d.side} {
			for i, id := range c.keys {
				switch lo, hi := d.span(id); {
				case hi < x:
					r += c.ws[i]
				case lo < x:
					r += c.ws[i] / 2
				}
			}
		}
		return r
	}
	for _, bits := range []int{4, 8, 16} {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(bits)))
			d := New(0.05, bits)
			for range 5000 {
				d.Update(rng.Uint64N(1 << bits))
			}
			qs := core.FoldRuns(func(rs *core.Runs) { rs.CopyRuns(d) })
			if !slices.IsSorted(qs.QVals) || qs.N != d.Count() {
				t.Fatalf("bits %d seed %d: fold of %d unsorted or weighing %d", bits, seed, d.Count(), qs.N)
			}
			for x := uint64(0); x <= 1<<bits; x += 1 + rng.Uint64N(1<<(bits/2)) {
				want := midpoint(d, x)
				if got := d.Rank(x); got != want {
					t.Fatalf("bits %d seed %d: Rank(%d) = %d, midpoint rule %d", bits, seed, x, got, want)
				}
				if got := qs.Rank(x); got != want {
					t.Fatalf("bits %d seed %d: fold rank of %d is %d, midpoint rule %d", bits, seed, x, got, want)
				}
			}
		}
	}
}
