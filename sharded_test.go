package streamquantiles

import (
	"sort"
	"sync"
	"testing"

	"streamquantiles/internal/core"
)

// Sharded-ingestion properties: a P-way sharded summary fed the same
// stream (in any partition) must answer within the composed ε bound —
// every shard contributes at most εᵢnᵢ rank error and Σ εᵢnᵢ ≤ εn —
// whether queries fold the shards' runs, sum their counters or sum
// their rank estimates. The concurrent tests run the actual multi-writer path and
// are meaningful under -race.

// mustShardedCash builds a sharded cash-register container, failing the
// test on a constructor error (valid topologies in these tests).
func mustShardedCash(t testing.TB, p int, fresh func() CashRegister) *ShardedCashRegister {
	t.Helper()
	s, err := NewShardedCashRegister(p, fresh)
	if err != nil {
		t.Fatalf("NewShardedCashRegister(%d, …): %v", p, err)
	}
	return s
}

// mustShardedTurn is the turnstile counterpart of mustShardedCash.
func mustShardedTurn(t testing.TB, p int, fresh func() Turnstile) *ShardedTurnstile {
	t.Helper()
	s, err := NewShardedTurnstile(p, fresh)
	if err != nil {
		t.Fatalf("NewShardedTurnstile(%d, …): %v", p, err)
	}
	return s
}

// shardedCashCases covers all three combination strategies: mergeable
// buffer families (kll, random, mrl99, qdigest) and the GK rank-descent
// fallback (gkarray, gkadaptive).
var shardedCashCases = []struct {
	name  string
	eps   float64
	fresh func() CashRegister
}{
	{"gkarray", 0.01, func() CashRegister { return NewGKArray(0.01) }},
	{"gkadaptive", 0.01, func() CashRegister { return NewGKAdaptive(0.01) }},
	{"qdigest", 0.01, func() CashRegister { return NewQDigest(0.01, 16) }},
	{"mrl99", 0.01, func() CashRegister { return NewMRL99(0.01, 7) }},
	{"random", 0.01, func() CashRegister { return NewRandom(0.01, 7) }},
	{"kll", 0.01, func() CashRegister { return NewKLL(0.01, 7) }},
}

// TestNilFactoryRejected: a nil factory, or one that builds a nil
// summary, is a caller bug every construction and Retarget path must
// report as an error — never a nil-pointer panic at the first write.
// A refused Retarget leaves the container ingesting and answering.
func TestNilFactoryRejected(t *testing.T) {
	nilCash := func() CashRegister { return nil }
	nilTurn := func() Turnstile { return nil }
	cash := mustShardedCash(t, 2, func() CashRegister { return NewKLL(0.01, 7) })
	turn := mustShardedTurn(t, 2, func() Turnstile { return NewDCS(0.05, 12, DyadicConfig{Seed: 7}) })
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"NewShardedCashRegister/nil", func() error { _, err := NewShardedCashRegister(2, nil); return err }},
		{"NewShardedCashRegister/nil-summary", func() error { _, err := NewShardedCashRegister(2, nilCash); return err }},
		{"NewShardedTurnstile/nil", func() error { _, err := NewShardedTurnstile(2, nil); return err }},
		{"NewShardedTurnstile/nil-summary", func() error { _, err := NewShardedTurnstile(2, nilTurn); return err }},
		{"NewSafeShardedCashRegister/nil", func() error { _, err := NewSafeShardedCashRegister(2, nil); return err }},
		{"NewSafeShardedCashRegister/nil-summary", func() error { _, err := NewSafeShardedCashRegister(2, nilCash); return err }},
		{"NewSafeShardedTurnstile/nil", func() error { _, err := NewSafeShardedTurnstile(2, nil); return err }},
		{"NewSafeShardedTurnstile/nil-summary", func() error { _, err := NewSafeShardedTurnstile(2, nilTurn); return err }},
		{"ShardedCashRegister.Retarget/nil", func() error { return cash.Retarget(nil) }},
		{"ShardedCashRegister.Retarget/nil-summary", func() error { return cash.Retarget(nilCash) }},
		{"ShardedTurnstile.Retarget/nil", func() error { return turn.Retarget(nil) }},
		{"ShardedTurnstile.Retarget/nil-summary", func() error { return turn.Retarget(nilTurn) }},
	} {
		if err := tc.call(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	cash.Update(1)
	turn.Insert(1)
	if cash.Generation() != 0 || turn.Generation() != 0 || cash.Quantile(0.5) != 1 || turn.Quantile(0.5) != 1 {
		t.Error("a refused Retarget changed the container")
	}
}

func TestShardedCashRegisterWithinEps(t *testing.T) {
	data := batchTestData(30000)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, tc := range shardedCashCases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustShardedCash(t, 4, tc.fresh)
			feedBatches(s.UpdateBatch, data)
			if s.Count() != int64(len(data)) {
				t.Fatalf("count %d, want %d", s.Count(), len(data))
			}
			if err := s.Invariants(); err != nil {
				t.Fatalf("shard invariants: %v", err)
			}
			// The randomized families hold ε with constant probability per
			// query; at these sizes the observed error is far below ε, so a
			// 2εn tolerance keeps the test deterministic-tight without
			// flaking (seeds are fixed anyway).
			tol := int64(2 * tc.eps * float64(len(data)))
			phis := EvenPhis(0.1)
			for _, phi := range phis {
				rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
			}
			for i, q := range s.QuantileBatch(phis) {
				rankWithinEps(t, sorted, phis[i], q, tol)
			}
		})
	}
}

func TestShardedTurnstileWithinEps(t *testing.T) {
	data := batchTestData(30000)
	var dels []uint64
	for i := 0; i < len(data); i += 3 {
		dels = append(dels, data[i])
	}
	remaining := make(map[uint64]int)
	for _, x := range data {
		remaining[x]++
	}
	for _, x := range dels {
		remaining[x]--
	}
	var sorted []uint64
	for x, c := range remaining {
		for ; c > 0; c-- {
			sorted = append(sorted, x)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, tc := range []struct {
		name  string
		fresh func() Turnstile
	}{
		{"dcm", func() Turnstile { return NewDCM(0.05, 16, DyadicConfig{Seed: 7}) }},
		{"dcs", func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustShardedTurn(t, 4, tc.fresh)
			feedBatches(s.InsertBatch, data)
			feedBatches(s.DeleteBatch, dels)
			if s.Count() != int64(len(sorted)) {
				t.Fatalf("count %d, want %d", s.Count(), len(sorted))
			}
			if err := s.Invariants(); err != nil {
				t.Fatalf("shard invariants: %v", err)
			}
			tol := int64(2 * 0.05 * float64(len(sorted)))
			for _, phi := range EvenPhis(0.2) {
				rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
			}
		})
	}
}

// TestShardedTurnstileMergesExactly: identically seeded dyadic shards
// are linear, so the combined query path must agree exactly with one
// unsharded sketch fed the same stream.
func TestShardedTurnstileMergesExactly(t *testing.T) {
	data := batchTestData(20000)
	ref := NewDCS(0.05, 16, DyadicConfig{Seed: 7})
	for _, x := range data {
		ref.Insert(x)
	}
	s := mustShardedTurn(t, 4, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	feedBatches(s.InsertBatch, data)
	for _, phi := range EvenPhis(0.2) {
		if r, g := ref.Quantile(phi), s.Quantile(phi); r != g {
			t.Errorf("Quantile(%v) = %d, unsharded %d", phi, g, r)
		}
	}
	for probe := uint64(0); probe < 1<<16; probe += 1009 {
		if r, g := ref.Rank(probe), s.Rank(probe); r != g {
			t.Errorf("Rank(%d) = %d, unsharded %d", probe, g, r)
		}
	}
}

// TestShardedConcurrentWriters drives W goroutines of batched writers
// into one sharded summary — the production ingestion shape — and
// checks count, invariants and the ε contract afterwards. Run with
// -race this is the data-race proof for the lock-per-shard design.
func TestShardedConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 5000
	data := batchTestData(writers * perWriter)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	s := mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.01) })
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			feedBatches(s.UpdateBatch, part)
		}(data[w*perWriter : (w+1)*perWriter])
	}
	wg.Wait()
	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	if err := s.Invariants(); err != nil {
		t.Fatalf("shard invariants: %v", err)
	}
	// GK's midpoint rank estimator is uncertain by up to the capacity of
	// the gap a probe falls into — ⌊2εᵢnᵢ⌋ per shard — so the additive
	// combination guarantees 2εn (plus per-shard integer rounding).
	tol := int64(2*0.01*float64(len(data))) + int64(s.Shards())
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), tol)
	}
}

// TestShardedTurnstileConcurrent mixes concurrent batched inserters and
// deleters (deleting only elements their own goroutine inserted first,
// staying strict-turnstile globally) with concurrent queriers.
func TestShardedTurnstileConcurrent(t *testing.T) {
	const writers, perWriter = 4, 4000
	s := mustShardedTurn(t, 4, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) })
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			part := make([]uint64, perWriter)
			for i := range part {
				part[i] = (uint64(seed*perWriter+i) * 2654435761) % (1 << 16)
			}
			feedBatches(s.InsertBatch, part)
			feedBatches(s.DeleteBatch, part[:perWriter/2])
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Count()
			_ = s.Rank(uint64(i * 100))
		}
	}()
	wg.Wait()
	want := int64(writers * perWriter / 2)
	if s.Count() != want {
		t.Fatalf("count %d, want %d", s.Count(), want)
	}
	if err := s.Invariants(); err != nil {
		t.Fatalf("shard invariants: %v", err)
	}
}

// TestSafeWrapperBatchPaths exercises the batch-aware Safe locking:
// concurrent UpdateBatch callers on one SafeCashRegister, and the
// turnstile wrapper's insert/delete batches, with queries interleaved.
func TestSafeWrapperBatchPaths(t *testing.T) {
	const writers, perWriter = 4, 5000
	data := batchTestData(writers * perWriter)
	c := NewSafeCashRegister(NewGKArray(0.01))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			feedBatches(c.UpdateBatch, part)
		}(data[w*perWriter : (w+1)*perWriter])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if c.Count() > 0 {
				_ = c.Quantile(0.5)
			}
		}
	}()
	wg.Wait()
	if c.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", c.Count(), len(data))
	}

	tu := NewSafeTurnstile(NewDCS(0.05, 16, DyadicConfig{Seed: 7}))
	wg.Add(2)
	go func() {
		defer wg.Done()
		feedBatches(tu.InsertBatch, data)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = tu.Count()
		}
	}()
	wg.Wait()
	feedBatches(tu.DeleteBatch, data[:len(data)/2])
	if tu.Count() != int64(len(data)/2) {
		t.Fatalf("turnstile count %d, want %d", tu.Count(), len(data)/2)
	}
}

// TestShardedRankCombination pins the additive-rank estimate itself:
// the summed estimate must be within the composed 2εn bound (GK's
// midpoint estimator is uncertain by the gap capacity ⌊2εᵢnᵢ⌋ per
// shard) of the true rank at every probe, not only at quantile answers.
func TestShardedRankCombination(t *testing.T) {
	data := batchTestData(20000)
	sorted := append([]uint64(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := mustShardedCash(t, 4, func() CashRegister { return NewGKAdaptive(0.01) })
	feedBatches(s.UpdateBatch, data)
	tol := int64(2*0.01*float64(len(data))) + int64(s.Shards())
	for probe := uint64(0); probe < 1<<16; probe += 499 {
		got := s.Rank(probe)
		below := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= probe }))
		atOrBelow := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > probe }))
		if got < below-tol || got > atOrBelow+tol {
			t.Fatalf("Rank(%d) = %d, true interval [%d,%d], tol %d", probe, got, below, atOrBelow, tol)
		}
	}
}

// TestShardedValidation pins constructor validation and the empty-query
// contract.
func TestShardedValidation(t *testing.T) {
	if _, err := NewShardedCashRegister(0, func() CashRegister { return NewGKArray(0.1) }); err == nil {
		t.Error("NewShardedCashRegister(0, …) did not error")
	}
	if _, err := NewShardedCashRegister(-3, func() CashRegister { return NewGKArray(0.1) }); err == nil {
		t.Error("NewShardedCashRegister(-3, …) did not error")
	}
	if _, err := NewShardedTurnstile(0, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) }); err == nil {
		t.Error("NewShardedTurnstile(0, …) did not error")
	}
	s := mustShardedCash(t, 2, func() CashRegister { return NewGKArray(0.1) })
	if s.Shards() != 2 {
		t.Errorf("Shards() = %d", s.Shards())
	}
	defer func() {
		if r := recover(); r != core.ErrEmpty {
			t.Errorf("empty Quantile panicked with %v, want ErrEmpty", r)
		}
	}()
	_ = s.Quantile(0.5)
}
