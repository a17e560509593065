package streamquantiles

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Elasticity properties: online Reshard and Retarget must preserve the
// composed error contract — ≤ EpsBudget()·n for merged folds, ≤
// 2·EpsBudget()·n + Shards() + Components() for additive rank
// combination — conserve every ingested element, and keep the deep
// invariants clean, all without stopping ingestion (the concurrent
// tests run real writers through the swap and are meaningful under
// -race).

// elasticTol returns the composed rank-error tolerance for a sharded
// cash register after any sequence of elastic operations.
func elasticTol(s *ShardedCashRegister, n int) int64 {
	return int64(2*s.EpsBudget()*float64(n)) + int64(s.Shards()) + int64(s.Components())
}

func sortedCopy(data []uint64) []uint64 {
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// TestReshardMergeable drives a mergeable family through a grow and a
// shrink with ingestion between, checking conservation, generation
// accounting and the ε contract at every step. Merge drains preserve
// max ε, so no components ever freeze.
func TestReshardMergeable(t *testing.T) {
	data := batchTestData(30000)
	s := mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.01, 7) })
	feedBatches(s.UpdateBatch, data[:10000])

	if err := s.Reshard(7); err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 7 || s.Generation() != 1 {
		t.Fatalf("Shards=%d Generation=%d after grow", s.Shards(), s.Generation())
	}
	feedBatches(s.UpdateBatch, data[10000:20000])

	if err := s.Reshard(2); err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 2 || s.Generation() != 2 {
		t.Fatalf("Shards=%d Generation=%d after shrink", s.Shards(), s.Generation())
	}
	feedBatches(s.UpdateBatch, data[20000:])

	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	if s.Components() != 0 {
		t.Fatalf("mergeable reshard froze %d components", s.Components())
	}
	if err := s.Invariants(); err != nil {
		t.Fatal(err)
	}
	sorted := sortedCopy(data)
	tol := elasticTol(s, len(data))
	for _, phi := range EvenPhis(0.1) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}

// TestReshardAdoption drives the GK (non-mergeable) family through a
// grow — a pure pointer adoption, no accuracy cost — and a shrink,
// which freezes the surplus shards as rank components.
func TestReshardAdoption(t *testing.T) {
	data := batchTestData(30000)
	s := mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.01) })
	feedBatches(s.UpdateBatch, data[:10000])

	if err := s.Reshard(6); err != nil {
		t.Fatal(err)
	}
	if s.Components() != 0 {
		t.Fatalf("grow froze %d components", s.Components())
	}
	feedBatches(s.UpdateBatch, data[10000:20000])

	if err := s.Reshard(2); err != nil {
		t.Fatal(err)
	}
	// All six pre-shrink shards held data, so four freeze.
	if got := s.Components(); got != 4 {
		t.Fatalf("shrink froze %d components, want 4", got)
	}
	feedBatches(s.UpdateBatch, data[20000:])

	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	if err := s.Invariants(); err != nil {
		t.Fatal(err)
	}
	sorted := sortedCopy(data)
	tol := elasticTol(s, len(data))
	for _, phi := range EvenPhis(0.1) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
	for probe := uint64(0); probe < 1<<16; probe += 997 {
		got := s.Rank(probe)
		below := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= probe }))
		atOrBelow := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > probe }))
		if got < below-tol || got > atOrBelow+tol {
			t.Fatalf("Rank(%d) = %d, true interval [%d,%d], tol %d", probe, got, below, atOrBelow, tol)
		}
	}
}

// TestReshardCycleUnderConcurrentIngestion is the elasticity property
// test: a grow→shrink→grow cycle runs while writer goroutines ingest
// continuously, and afterwards the container must have conserved every
// element, kept its invariants, and stayed within the composed bound —
// 2ε·n + Shards() + Components() for the rank-combined GK family,
// the merged ε·n (checked at the same composed tolerance) for KLL.
func TestReshardCycleUnderConcurrentIngestion(t *testing.T) {
	const writers, perWriter = 6, 8000
	for _, tc := range []struct {
		name  string
		fresh func() CashRegister
	}{
		{"gkarray", func() CashRegister { return NewGKArray(0.01) }},
		{"kll", func() CashRegister { return NewKLL(0.01, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := batchTestData(writers * perWriter)
			s := mustShardedCash(t, 4, tc.fresh)
			var wg sync.WaitGroup
			var ingested atomic.Int64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(part []uint64) {
					defer wg.Done()
					feedBatches(func(xs []uint64) {
						s.UpdateBatch(xs)
						ingested.Add(int64(len(xs)))
					}, part)
				}(data[w*perWriter : (w+1)*perWriter])
			}
			// The elastic cycle runs concurrently with the writers, each
			// step gated on ingestion progress so the swaps land mid-stream.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, step := range []int{9, 3, 6} {
					for ingested.Load() < int64(writers*perWriter)/4 {
						// Spin until a quarter of the stream is in; writers
						// are still running, so this terminates.
					}
					if err := s.Reshard(step); err != nil {
						t.Errorf("Reshard(%d): %v", step, err)
						return
					}
					// Interleave queries with the swaps: the fold cache must
					// serve consistent answers mid-cycle.
					if s.Count() > 0 {
						_ = s.Quantile(0.5)
						_ = s.Rank(1 << 15)
					}
				}
			}()
			wg.Wait()
			if s.Count() != int64(len(data)) {
				t.Fatalf("count %d, want %d: the swap lost or duplicated writes", s.Count(), len(data))
			}
			if s.Shards() != 6 || s.Generation() != 3 {
				t.Fatalf("Shards=%d Generation=%d after cycle", s.Shards(), s.Generation())
			}
			if err := s.Invariants(); err != nil {
				t.Fatal(err)
			}
			sorted := sortedCopy(data)
			tol := elasticTol(s, len(data))
			for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
				rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
			}
		})
	}
}

// TestRetargetCoarser re-ε's a mergeable container to a wider budget:
// the old data is absorbed through RetargetMerge (no components), and
// the composed budget becomes the new, coarser ε.
func TestRetargetCoarser(t *testing.T) {
	data := batchTestData(30000)
	s := mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.01, 7) })
	feedBatches(s.UpdateBatch, data[:15000])
	if err := s.Retarget(func() CashRegister { return NewKLL(0.05, 7) }); err != nil {
		t.Fatal(err)
	}
	if got := s.EpsBudget(); got != 0.05 {
		t.Fatalf("EpsBudget = %v, want 0.05", got)
	}
	if s.Components() != 0 {
		t.Fatalf("coarsening froze %d components, want absorption", s.Components())
	}
	feedBatches(s.UpdateBatch, data[15000:])
	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	if err := s.Invariants(); err != nil {
		t.Fatal(err)
	}
	sorted := sortedCopy(data)
	tol := elasticTol(s, len(data))
	for _, phi := range EvenPhis(0.1) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}

// TestRetargetFiner re-ε's to a tighter budget: absorbing would pin the
// whole sketch at the coarse ε forever, so the old data freezes as
// components keeping its own budget while new data earns the finer one.
func TestRetargetFiner(t *testing.T) {
	data := batchTestData(30000)
	s := mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.05, 7) })
	feedBatches(s.UpdateBatch, data[:15000])
	if err := s.Retarget(func() CashRegister { return NewKLL(0.01, 7) }); err != nil {
		t.Fatal(err)
	}
	if got := s.Components(); got != 4 {
		t.Fatalf("refining froze %d components, want 4", got)
	}
	// The frozen data keeps its 0.05 budget; the composed max stays 0.05.
	if got := s.EpsBudget(); got != 0.05 {
		t.Fatalf("EpsBudget = %v, want 0.05", got)
	}
	feedBatches(s.UpdateBatch, data[15000:])
	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	if err := s.Invariants(); err != nil {
		t.Fatal(err)
	}
	sorted := sortedCopy(data)
	tol := elasticTol(s, len(data))
	for _, phi := range EvenPhis(0.1) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}

// TestRetargetGKFreezes: the GK family has no merge and no
// retarget-merge, so a re-ε freezes every populated shard.
func TestRetargetGKFreezes(t *testing.T) {
	data := batchTestData(20000)
	s := mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.02) })
	feedBatches(s.UpdateBatch, data[:10000])
	if err := s.Retarget(func() CashRegister { return NewGKArray(0.01) }); err != nil {
		t.Fatal(err)
	}
	if got := s.Components(); got != 4 {
		t.Fatalf("Components = %d, want 4", got)
	}
	if got := s.EpsBudget(); got != 0.02 {
		t.Fatalf("EpsBudget = %v, want 0.02", got)
	}
	feedBatches(s.UpdateBatch, data[10000:])
	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	sorted := sortedCopy(data)
	tol := elasticTol(s, len(data))
	for _, phi := range EvenPhis(0.1) {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}

// TestTurnstileReshardExact: dyadic shards are linear, so a reshard
// drain is an exact merge and the resharded container must agree
// bit-for-bit with an unsharded reference — including deletions that
// arrive after the swap for elements inserted before it.
func TestTurnstileReshardExact(t *testing.T) {
	data := batchTestData(20000)
	ref := NewDCS(0.05, 16, DyadicConfig{Seed: 7})
	s := mustShardedTurn(t, 4, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	feedBatches(s.InsertBatch, data)
	for _, x := range data {
		ref.Insert(x)
	}
	if err := s.Reshard(3); err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 3 || s.Generation() != 1 {
		t.Fatalf("Shards=%d Generation=%d", s.Shards(), s.Generation())
	}
	// Deletions routed under the new modulus must cancel against
	// insertions merged from the old one.
	feedBatches(s.DeleteBatch, data[:5000])
	for _, x := range data[:5000] {
		ref.Delete(x)
	}
	if s.Count() != ref.Count() {
		t.Fatalf("count %d, reference %d", s.Count(), ref.Count())
	}
	if err := s.Invariants(); err != nil {
		t.Fatal(err)
	}
	for _, phi := range EvenPhis(0.2) {
		if a, b := s.Quantile(phi), ref.Quantile(phi); a != b {
			t.Errorf("Quantile(%v) = %d, unsharded %d", phi, a, b)
		}
	}
	for probe := uint64(0); probe < 1<<16; probe += 1009 {
		if a, b := s.Rank(probe), ref.Rank(probe); a != b {
			t.Errorf("Rank(%d) = %d, unsharded %d", probe, a, b)
		}
	}
}

// TestTurnstileReshardNonMergeableRejected: a factory whose instances
// cannot merge (drifting seeds) must be rejected — a frozen component
// could never cancel a later deletion.
func TestTurnstileReshardNonMergeableRejected(t *testing.T) {
	var seed atomic.Uint64
	s := mustShardedTurn(t, 2, func() Turnstile {
		return NewDCS(0.05, 16, DyadicConfig{Seed: seed.Add(1)})
	})
	s.Insert(42)
	if err := s.Reshard(4); err == nil {
		t.Fatal("reshard of a non-mergeable turnstile family did not error")
	}
	if s.Shards() != 2 || s.Generation() != 0 {
		t.Fatalf("failed reshard mutated topology: Shards=%d Generation=%d", s.Shards(), s.Generation())
	}
	if s.Count() != 1 {
		t.Fatalf("count %d after rejected reshard", s.Count())
	}
}

// TestTurnstileRetarget: an identically configured factory absorbs via
// exact merge; an incompatible one must be rejected by the probe
// without touching the live topology.
func TestTurnstileRetarget(t *testing.T) {
	data := batchTestData(10000)
	s := mustShardedTurn(t, 4, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	feedBatches(s.InsertBatch, data)

	if err := s.Retarget(func() Turnstile { return NewDCS(0.01, 16, DyadicConfig{Seed: 9}) }); err == nil {
		t.Fatal("incompatible turnstile retarget did not error")
	}
	if s.Generation() != 0 || s.Count() != int64(len(data)) {
		t.Fatalf("rejected retarget mutated state: Generation=%d Count=%d", s.Generation(), s.Count())
	}

	if err := s.Retarget(func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) }); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("Generation = %d after retarget", s.Generation())
	}
	feedBatches(s.DeleteBatch, data[:3000])
	ref := NewDCS(0.05, 16, DyadicConfig{Seed: 7})
	for _, x := range data[3000:] {
		ref.Insert(x)
	}
	if s.Count() != ref.Count() {
		t.Fatalf("count %d, reference %d", s.Count(), ref.Count())
	}
	for probe := uint64(0); probe < 1<<16; probe += 2003 {
		if a, b := s.Rank(probe), ref.Rank(probe); a != b {
			t.Errorf("Rank(%d) = %d, unsharded %d", probe, a, b)
		}
	}
}

// TestShardedCodecRoundTrip pins the container codec: a mid-life
// topology (post-shrink, with frozen components) must round-trip to a
// byte-identical re-marshal with identical answers, and the decoded
// container must keep operating (ingest, reshard) afterwards.
func TestShardedCodecRoundTrip(t *testing.T) {
	data := batchTestData(20000)
	s := mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.01) })
	feedBatches(s.UpdateBatch, data)
	if err := s.Reshard(2); err != nil { // freezes two components
		t.Fatal(err)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	rec := mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.01) })
	if err := rec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if rec.Shards() != s.Shards() || rec.Generation() != s.Generation() || rec.Components() != s.Components() {
		t.Fatalf("decoded topology Shards=%d Gen=%d Comps=%d, want %d/%d/%d",
			rec.Shards(), rec.Generation(), rec.Components(), s.Shards(), s.Generation(), s.Components())
	}
	reblob, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, reblob) {
		t.Fatalf("re-marshal differs: %d vs %d bytes", len(reblob), len(blob))
	}
	if rec.Count() != s.Count() {
		t.Fatalf("count %d, want %d", rec.Count(), s.Count())
	}
	if err := rec.Invariants(); err != nil {
		t.Fatal(err)
	}
	for _, phi := range EvenPhis(0.1) {
		if a, b := rec.Quantile(phi), s.Quantile(phi); a != b {
			t.Errorf("Quantile(%v) = %d, original %d", phi, a, b)
		}
	}
	// The decoded container stays live: more data, another reshard.
	extra := batchTestData(30000)[20000:]
	feedBatches(rec.UpdateBatch, extra)
	if err := rec.Reshard(5); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != int64(20000+len(extra)) {
		t.Fatalf("count %d after post-decode ingest", rec.Count())
	}
	if err := rec.Invariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTurnstileCodecRoundTrip is the turnstile counterpart, and
// pins that a turnstile encoding carrying components is rejected.
func TestShardedTurnstileCodecRoundTrip(t *testing.T) {
	data := batchTestData(10000)
	s := mustShardedTurn(t, 4, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	feedBatches(s.InsertBatch, data)
	feedBatches(s.DeleteBatch, data[:2000])
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec := mustShardedTurn(t, 2, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	if err := rec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if rec.Shards() != 4 {
		t.Fatalf("decoded Shards = %d, want 4", rec.Shards())
	}
	reblob, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, reblob) {
		t.Fatalf("re-marshal differs: %d vs %d bytes", len(reblob), len(blob))
	}
	if rec.Count() != s.Count() {
		t.Fatalf("count %d, want %d", rec.Count(), s.Count())
	}
	for probe := uint64(0); probe < 1<<16; probe += 2003 {
		if a, b := rec.Rank(probe), s.Rank(probe); a != b {
			t.Errorf("Rank(%d) = %d, original %d", probe, a, b)
		}
	}
}

// TestEpsBudgetAfterDecode: a decoded frame keeps the ε its shards were
// saved with, whatever the restoring container's factory says, so the
// composed budget must come from the shards, not the factory.
func TestEpsBudgetAfterDecode(t *testing.T) {
	s := mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.05, 7) })
	feedBatches(s.UpdateBatch, batchTestData(20000))
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec := mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.001, 7) })
	if got := rec.EpsBudget(); got != 0.001 {
		t.Fatalf("fresh EpsBudget = %v, want 0.001", got)
	}
	if err := rec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got := rec.EpsBudget(); got != 0.05 {
		t.Fatalf("decoded EpsBudget = %v, want the frame's 0.05", got)
	}
}

// TestTurnstileFailedReshardKeepsData: a turnstile whose live shards
// cannot merge into the factory's configuration (a decoded frame at a
// different ε) must refuse Reshard and Retarget before touching the
// topology — no data lost, no shard left behind in a retired
// generation.
func TestTurnstileFailedReshardKeepsData(t *testing.T) {
	data := batchTestData(30000)
	s := mustShardedTurn(t, 3, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	feedBatches(s.InsertBatch, data)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec := mustShardedTurn(t, 3, func() Turnstile { return NewDCS(0.01, 16, DyadicConfig{Seed: 7}) })
	if err := rec.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	count, median := rec.Count(), rec.Quantile(0.5)
	if count != int64(len(data)) {
		t.Fatalf("decoded count %d, want %d", count, len(data))
	}
	check := func(op string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "cannot merge differently configured sketches") {
			t.Fatalf("%s: err = %v, want the merge refusal", op, err)
		}
		if got := rec.Count(); got != count {
			t.Fatalf("%s: count %d after the failed call, want %d", op, got, count)
		}
		if got := rec.Quantile(0.5); got != median {
			t.Fatalf("%s: Quantile(0.5) = %d after the failed call, want %d", op, got, median)
		}
		if rec.Shards() != 3 || rec.Generation() != 0 {
			t.Fatalf("%s: failed call moved the topology: Shards=%d Generation=%d", op, rec.Shards(), rec.Generation())
		}
	}
	check("Reshard", rec.Reshard(2))
	check("Retarget", rec.Retarget(func() Turnstile { return NewDCS(0.01, 16, DyadicConfig{Seed: 7}) }))
}

// TestSafeRetarget covers the wrapper-level re-ε: absorption through
// RetargetMerge, rejection when no absorb path exists, and the
// capability re-probe (a retarget that lands on a Flusher must demote
// queries to exclusive locks; one that lands on a Snapshotter must
// re-arm the snapshot cache).
func TestSafeRetarget(t *testing.T) {
	data := batchTestData(20000)
	c := NewSafeCashRegister(NewKLL(0.01, 7))
	feedBatches(c.UpdateBatch, data[:10000])
	if err := c.Retarget(NewKLL(0.05, 7)); err != nil {
		t.Fatal(err)
	}
	feedBatches(c.UpdateBatch, data[10000:])
	if c.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", c.Count(), len(data))
	}
	sorted := sortedCopy(data)
	tol := int64(2 * 0.05 * float64(len(data)))
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		rankWithinEps(t, sorted, phi, c.Quantile(phi), tol)
	}

	// GKArray has no absorb path: a live retarget must fail and leave the
	// wrapper untouched.
	g := NewSafeCashRegister(NewGKArray(0.01))
	g.Update(1)
	if err := g.Retarget(NewGKArray(0.05)); err == nil {
		t.Fatal("retarget without an absorb path did not error")
	}
	if g.Count() != 1 {
		t.Fatalf("failed retarget mutated state: count %d", g.Count())
	}

	// An empty wrapper absorbs trivially — and the capability probes must
	// track the new summary: KLL reads are shared, GKArray's flush on
	// query demands exclusive reads.
	e := NewSafeCashRegister(NewKLL(0.01, 7))
	if e.exclusiveReads.Load() {
		t.Fatal("KLL demoted to exclusive reads")
	}
	if err := e.Retarget(NewGKArray(0.01)); err != nil {
		t.Fatal(err)
	}
	if !e.exclusiveReads.Load() {
		t.Fatal("retarget onto a Flusher kept shared reads")
	}
	e.Update(7)
	if got := e.Quantile(0.5); got != 7 {
		t.Fatalf("Quantile after retarget = %d, want 7", got)
	}
}
