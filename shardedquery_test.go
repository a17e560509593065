package streamquantiles

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/streamgen"
)

// Sharded query-path properties: the construction-time mergeability
// probe, the epoch-keyed fold cache, the run fold's equivalence to the
// re-sorted union of the shards' samples and its accuracy, the
// one-shard rule, and the 2εn+P combined-rank bound of the GK additive
// combination.

// TestShardedMergeableProbe pins the construction-time capability
// probe: a merge-compatible factory folds, a factory whose instances
// cannot merge (here: differing ε per call) is detected up front, and
// a non-Mergeable family never claims to fold.
func TestShardedMergeableProbe(t *testing.T) {
	same := mustShardedCash(t, 2, func() CashRegister { return NewKLL(0.01, 7) })
	if !same.Mergeable() {
		t.Error("identically configured KLL factory: Mergeable() = false, want true")
	}
	var n atomic.Int64
	drift := mustShardedCash(t, 2, func() CashRegister {
		return NewKLL(0.01/float64(n.Add(1)), 7)
	})
	if drift.Mergeable() {
		t.Error("eps-drifting KLL factory: Mergeable() = true, want false (instances cannot merge)")
	}
	gk := mustShardedCash(t, 2, func() CashRegister { return NewGKArray(0.01) })
	if gk.Mergeable() {
		t.Error("GKArray is not Mergeable, but the probe claims it folds")
	}
	// The drifting factory must still answer, and within the unsharded
	// budget: the run fold does not need the shards to merge.
	data := batchTestData(4000)
	feedBatches(drift.UpdateBatch, data)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rankWithinEps(t, sorted, 0.5, drift.Quantile(0.5), int64(0.01*float64(len(data))))
}

// TestShardedFoldCacheReuse counts factory invocations to pin the
// epoch cache's contract: folding a tree-merged family (q-digest) costs
// one fresh summary per shard per *write generation*, never per query;
// the linear fold (DCS) recycles its target, so after warm-up it costs
// none and allocates only bookkeeping; and the run fold and the
// snapshot combination cost none at all. For the run fold, a quiet
// container's queries allocate nothing: they answer from the cached
// snapshot.
func TestShardedFoldCacheReuse(t *testing.T) {
	const p = 4
	data := batchTestData(20000)
	phis := EvenPhis(0.1)

	t.Run("mergeable", func(t *testing.T) {
		var calls atomic.Int64
		s := mustShardedCash(t, p, func() CashRegister {
			calls.Add(1)
			return NewQDigest(0.01, 16)
		})
		base := calls.Load()
		if base != p+2 {
			t.Fatalf("construction used %d fresh summaries, want %d (P shards + 2 probe throwaways)", base, p+2)
		}
		feedBatches(s.UpdateBatch, data)
		s.Quantile(0.5) // first query folds: one fresh partial per shard
		afterFold := calls.Load()
		if afterFold != base+p {
			t.Fatalf("first query used %d fresh summaries, want %d (one per shard)", afterFold-base, p)
		}
		s.Quantile(0.9)
		s.QuantileBatch(phis)
		s.Rank(data[0])
		s.RankBatch(data[:8])
		if got := calls.Load(); got != afterFold {
			t.Errorf("%d fresh summaries built by queries on a quiet summary, want 0 (cache hit)", got-afterFold)
		}
		s.Update(data[0]) // retire the fold
		s.Quantile(0.5)
		if got := calls.Load(); got != afterFold+p {
			t.Errorf("query after a write used %d fresh summaries, want %d (one re-fold)", got-afterFold, p)
		}
	})

	t.Run("linear", func(t *testing.T) {
		var calls atomic.Int64
		s := mustShardedTurn(t, p, func() Turnstile {
			calls.Add(1)
			return NewDCS(0.005, 24, DyadicConfig{Seed: 7})
		})
		feedBatches(s.InsertBatch, data)
		// Warm-up: the first two folds build the two targets the cache
		// then alternates between.
		for i := 0; i < 2; i++ {
			s.Insert(data[i])
			s.Quantile(0.5)
		}
		base := calls.Load()
		// A re-fold resets and re-sums a recycled target: no fresh
		// summary, and only the entry's own bookkeeping is allocated
		// (the tree fold allocated P fresh 723 KB sketches, 3.1 MB).
		// The least of a few rounds keeps a stray allocation elsewhere
		// in the process out of the count.
		var least uint64 = math.MaxUint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Insert(data[i])
			s.Quantile(0.5)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if got := calls.Load(); got != base {
			t.Errorf("re-folds built %d fresh summaries, want 0 (recycled target)", got-base)
		}
		if least >= 64<<10 {
			t.Errorf("a re-fold allocated %d bytes, want < 64 KiB", least)
		}
	})

	t.Run("runs", func(t *testing.T) {
		var calls atomic.Int64
		s := mustShardedCash(t, p, func() CashRegister {
			calls.Add(1)
			return NewKLL(0.01, 7)
		})
		base := calls.Load()
		feedBatches(s.UpdateBatch, data)
		s.Quantile(0.5)
		if allocs := testing.AllocsPerRun(20, func() { s.Quantile(0.9) }); allocs != 0 {
			t.Errorf("a quiet container's query allocated %v times, want 0 (cache hit)", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { s.Update(data[0]); s.Quantile(0.9) }); allocs == 0 {
			t.Error("a query after a write allocated nothing: the fold was not rebuilt")
		}
		if got := calls.Load(); got != base {
			t.Errorf("the run fold built %d fresh summaries, want 0", got-base)
		}
	})

	t.Run("snapshots", func(t *testing.T) {
		var calls atomic.Int64
		s := mustShardedCash(t, p, func() CashRegister {
			calls.Add(1)
			return NewGKArray(0.01)
		})
		base := calls.Load()
		feedBatches(s.UpdateBatch, data)
		s.Quantile(0.5)
		s.QuantileBatch(phis)
		s.Update(data[0])
		s.Quantile(0.5)
		if got := calls.Load(); got != base {
			t.Errorf("snapshot combination built %d fresh summaries, want 0", got-base)
		}
	})
}

// weightedSamples reads a sampling summary's weighted samples back
// from its exact snapshot, whose keys are cumulative sample weights.
func weightedSamples(s core.Snapshotter) []core.WeightedValue {
	qs := core.BuildQuerySnapshot(s)
	out := make([]core.WeightedValue, len(qs.QVals))
	var prev int64
	for i, v := range qs.QVals {
		out[i] = core.WeightedValue{V: v, W: qs.QKeys[i] - prev}
		prev = qs.QKeys[i]
	}
	return out
}

// unionReference re-sorts the union of the parts' weighted samples
// into the snapshot a run fold over them must equal.
func unionReference(parts []CashRegister) *core.QuerySnapshot {
	var union []core.WeightedValue
	for _, p := range parts {
		union = append(union, weightedSamples(p.(core.Snapshotter))...)
	}
	sort.SliceStable(union, func(i, j int) bool { return union[i].V < union[j].V })
	ref := new(core.QuerySnapshot)
	core.AppendWeightedSnapshot(ref, union)
	return ref
}

// TestShardedRunFoldMatchesUnion replays the partition by hand — one
// twin summary per shard fed that shard's exact round-robin share —
// and requires the sharded answers of the run-listing families to
// equal, exactly, a snapshot of the re-sorted union of the twins'
// weighted samples. The second pass retargets to a finer ε midway, so
// the old shards freeze as components and join the fold.
func TestShardedRunFoldMatchesUnion(t *testing.T) {
	const p, chunk = 4, 1000
	data := batchTestData(24000)
	phis := EvenPhis(0.05)
	var probes []uint64
	for x := uint64(0); x < 1<<16; x += 257 {
		probes = append(probes, x)
	}
	families := map[string]func(eps float64) CashRegister{
		"KLL":    func(eps float64) CashRegister { return NewKLL(eps, 7) },
		"MRL99":  func(eps float64) CashRegister { return NewMRL99(eps, 7) },
		"Random": func(eps float64) CashRegister { return NewRandom(eps, 7) },
	}
	for name, fresh := range families {
		for _, retarget := range []bool{false, true} {
			s := mustShardedCash(t, p, func() CashRegister { return fresh(0.01) })
			var twins []CashRegister
			live := make([]CashRegister, p)
			for i := range live {
				live[i] = fresh(0.01)
			}
			twins = append(twins, live...)
			for j, i := 0, 0; i < len(data); j, i = j+1, i+chunk {
				if retarget && i == len(data)/2 {
					if err := s.Retarget(func() CashRegister { return fresh(0.005) }); err != nil {
						t.Fatal(err)
					}
					for k := range live {
						live[k] = fresh(0.005)
					}
					twins = append(twins, live...)
				}
				s.UpdateBatch(data[i : i+chunk]) // round-robin: chunk j -> shard j%p
				UpdateBatch(live[j%p], data[i:i+chunk])
			}
			if retarget && s.Components() != p {
				t.Fatalf("%s: %d frozen components after a finer-ε retarget, want %d", name, s.Components(), p)
			}
			ref := unionReference(twins)
			want, got := ref.QuantileBatch(phis), s.QuantileBatch(phis)
			for i, phi := range phis {
				if got[i] != want[i] || s.Quantile(phi) != want[i] {
					t.Errorf("%s (retarget %v): Quantile(%v) = %d (batch %d), union reference %d",
						name, retarget, phi, s.Quantile(phi), got[i], want[i])
				}
			}
			wantR, gotR := ref.RankBatch(probes), s.RankBatch(probes)
			for i, x := range probes {
				if gotR[i] != wantR[i] || s.Rank(x) != wantR[i] {
					t.Errorf("%s (retarget %v): Rank(%d) = %d (batch %d), union reference %d",
						name, retarget, x, s.Rank(x), gotR[i], wantR[i])
				}
			}
		}
	}
}

// TestShardedSingleShardMatchesTwin pins the one-shard rule: a P=1
// container answers exactly like its unsharded twin, for every family
// of the study, whether the shard answers from its own snapshot or is
// queried under its lock (GKBiased, the dyadic sketches).
func TestShardedSingleShardMatchesTwin(t *testing.T) {
	const eps = 0.01
	data := batchTestData(20000)
	phis := EvenPhis(0.05)
	probes := data[:200]
	check := func(t *testing.T, s, twin Summary) {
		t.Helper()
		if s.Count() != twin.Count() {
			t.Fatalf("count %d, twin %d", s.Count(), twin.Count())
		}
		want, got := QuantileBatch(twin, phis), QuantileBatch(s, phis)
		for i, phi := range phis {
			if got[i] != want[i] || s.Quantile(phi) != twin.Quantile(phi) {
				t.Errorf("Quantile(%v) = %d (batch %d), twin %d (batch %d)",
					phi, s.Quantile(phi), got[i], twin.Quantile(phi), want[i])
			}
		}
		wantR, gotR := RankBatch(twin, probes), RankBatch(s, probes)
		for i, x := range probes {
			if gotR[i] != wantR[i] || s.Rank(x) != twin.Rank(x) {
				t.Errorf("Rank(%d) = %d (batch %d), twin %d (batch %d)", x, s.Rank(x), gotR[i], twin.Rank(x), wantR[i])
			}
		}
	}
	cash := map[string]func() CashRegister{
		"GKAdaptive": func() CashRegister { return NewGKAdaptive(eps) },
		"GKTheory":   func() CashRegister { return NewGKTheory(eps) },
		"GKArray":    func() CashRegister { return NewGKArray(eps) },
		"GKBiased":   func() CashRegister { return NewGKBiased(eps) },
		"QDigest":    func() CashRegister { return NewQDigest(eps, 16) },
		"MRL99":      func() CashRegister { return NewMRL99(eps, 7) },
		"Random":     func() CashRegister { return NewRandom(eps, 7) },
		"KLL":        func() CashRegister { return NewKLL(eps, 7) },
	}
	for name, fresh := range cash {
		t.Run(name, func(t *testing.T) {
			s, twin := mustShardedCash(t, 1, fresh), fresh()
			feedBatches(s.UpdateBatch, data)
			feedBatches(twin.(BatchCashRegister).UpdateBatch, data)
			check(t, s, twin)
		})
	}
	turn := map[string]func() Turnstile{
		"DCM": func() Turnstile { return NewDCM(eps, 16, DyadicConfig{Seed: 7}) },
		"DCS": func() Turnstile { return NewDCS(eps, 16, DyadicConfig{Seed: 7}) },
	}
	for name, fresh := range turn {
		t.Run(name, func(t *testing.T) {
			s, twin := mustShardedTurn(t, 1, fresh), fresh()
			feedBatches(s.InsertBatch, data)
			feedBatches(twin.(BatchTurnstile).InsertBatch, data)
			check(t, s, twin)
		})
	}
}

// TestShardedRunFoldAccuracyAcrossSeeds holds the run fold to the
// reported budget: KLL, MRL99 and Random at P ∈ {2, 4, 8}, each shard
// differently seeded (so the shards do not merge as summaries), over
// many seeds, with a finer-ε retarget midway that freezes the old
// shards into the fold. Every quantile probe's rank error and every
// rank probe's error against the exact oracle stays within
// EpsBudget()·n.
func TestShardedRunFoldAccuracyAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	const n, eps, seeds = 60000, 0.01, 20
	phis := EvenPhis(0.02)
	families := map[string]func(eps float64, seed uint64) CashRegister{
		"KLL":    func(eps float64, seed uint64) CashRegister { return NewKLL(eps, seed) },
		"MRL99":  func(eps float64, seed uint64) CashRegister { return NewMRL99(eps, seed) },
		"Random": func(eps float64, seed uint64) CashRegister { return NewRandom(eps, seed) },
	}
	for name, fresh := range families {
		for _, p := range []int{2, 4, 8} {
			worst := 0.0
			for seed := uint64(1); seed <= seeds; seed++ {
				data := streamgen.Generate(streamgen.Uniform{Bits: 20, Seed: seed}, n)
				oracle := exact.New(data)
				var next atomic.Uint64
				next.Store(seed * 1000)
				s := mustShardedCash(t, p, func() CashRegister { return fresh(eps, next.Add(1)) })
				feedBatches(s.UpdateBatch, data[:n/2])
				if err := s.Retarget(func() CashRegister { return fresh(eps/2, next.Add(1)) }); err != nil {
					t.Fatal(err)
				}
				feedBatches(s.UpdateBatch, data[n/2:])
				budget := s.EpsBudget()
				if budget != eps || s.Components() == 0 {
					t.Fatalf("%s P=%d: budget %v with %d components, want %v with the old shards frozen",
						name, p, budget, s.Components(), eps)
				}
				got := s.QuantileBatch(phis)
				for i, phi := range phis {
					worst = max(worst, oracle.QuantileError(got[i], phi))
					if e := oracle.QuantileError(got[i], phi); e > budget {
						t.Errorf("%s P=%d seed %d: Quantile(%v) rank error %.5f > EpsBudget %v", name, p, seed, phi, e, budget)
					}
				}
				xs := make([]uint64, len(phis))
				for i, phi := range phis {
					xs[i] = oracle.Quantile(phi)
				}
				for i, r := range s.RankBatch(xs) {
					e := math.Abs(float64(r-oracle.Rank(xs[i]))) / n
					worst = max(worst, e)
					if e > budget {
						t.Errorf("%s P=%d seed %d: Rank(%d) error %.5f > EpsBudget %v", name, p, seed, xs[i], e, budget)
					}
				}
			}
			t.Logf("%s P=%d: worst normalized rank error over %d seeds %.5f (EpsBudget %v)", name, p, seeds, worst, eps)
		}
	}
}

// TestShardedGKCombinedRankBound measures the additive GK combination
// against the documented bound: the summed rank estimate differs from
// the true combined rank by at most 2εn+P, and every quantile answer's
// rank error stays within the same bound (versus εn unsharded).
func TestShardedGKCombinedRankBound(t *testing.T) {
	const p = 4
	eps := 0.01
	data := batchTestData(30000)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := mustShardedCash(t, p, func() CashRegister { return NewGKArray(eps) })
	feedBatches(s.UpdateBatch, data)
	tol := int64(2*eps*float64(len(data))) + p

	var probes []uint64
	for x := uint64(0); x < 1<<16; x += 131 {
		probes = append(probes, x)
	}
	rs := s.RankBatch(probes)
	for i, x := range probes {
		truth := int64(sort.Search(len(sorted), func(j int) bool { return sorted[j] >= x }))
		if d := rs[i] - truth; d > tol || d < -tol {
			t.Errorf("Rank(%d) = %d, true strict rank %d: error %d exceeds 2εn+P = %d", x, rs[i], truth, d, tol)
		}
	}
	for _, phi := range EvenPhis(0.02) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}
