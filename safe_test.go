package streamquantiles

import (
	"errors"
	"sync"
	"testing"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/faultio"
)

func TestSafeCashRegisterConcurrent(t *testing.T) {
	s := NewSafeCashRegister(NewGKArray(0.01))
	var wg sync.WaitGroup
	const workers = 8
	const per = 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Update(uint64(w*per + i))
				if i%100 == 0 && s.Count() > 0 {
					_ = s.Quantile(0.5)
					_ = s.Rank(uint64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per {
		t.Fatalf("count %d, want %d", s.Count(), workers*per)
	}
	med := s.Quantile(0.5)
	want := uint64(workers * per / 2)
	slack := uint64(float64(workers*per) * 0.01)
	if med < want-slack || med > want+slack {
		t.Errorf("median %d outside %d±%d", med, want, slack)
	}
	qs := s.Quantiles([]float64{0.25, 0.75})
	if len(qs) != 2 || qs[0] > qs[1] {
		t.Errorf("Quantiles returned %v", qs)
	}
	if s.SpaceBytes() <= 0 {
		t.Error("space not positive")
	}
}

// safeReader is the query surface both Safe wrappers share.
type safeReader interface {
	Count() int64
	Quantile(phi float64) uint64
	Quantiles(phis []float64) []uint64
	Rank(x uint64) int64
	SpaceBytes() int64
}

// hammerSafe drives dedicated reader goroutines against a continuous
// writer feeding 0 … n−1 through write, then checks the count and the
// median within eps·n. Under -race this is the proof that every query
// path is sound against writes, whether it answers from the cached
// snapshot or queries (and possibly flushes) the summary under the
// shard's lock.
func hammerSafe(t *testing.T, s safeReader, write func(uint64), n int, eps float64) {
	t.Helper()
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if s.Count() == 0 {
					continue
				}
				q := s.Quantile(0.5)
				_ = s.Rank(q)
				_ = s.SpaceBytes()
				if i%64 == 0 {
					_ = s.Quantiles([]float64{0.25, 0.75})
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		write(uint64(i))
	}
	close(stop)
	wg.Wait()
	if s.Count() != int64(n) {
		t.Fatalf("count %d, want %d", s.Count(), n)
	}
	med := s.Quantile(0.5)
	slack := uint64(eps * float64(n))
	if med < uint64(n/2)-slack || med > uint64(n/2)+slack {
		t.Errorf("median %d outside %d±%d", med, n/2, slack)
	}
}

// TestSafeConcurrentReadersAndWriter covers every query regime of the
// wrappers: shared lock-free snapshot answers (KLL), snapshot rebuilds
// that flush buffered elements under the shard's exclusive lock
// (GKArray, QDigest), and queries under the shard's lock for the
// families without a snapshot (GKBiased, which flushes on query, and
// DCS, a pure reader).
func TestSafeConcurrentReadersAndWriter(t *testing.T) {
	const n, eps = 20000, 0.02
	cash := map[string]func() CashRegister{
		"KLL-sharedreads":        func() CashRegister { return NewKLL(eps, 7) },
		"GKArray-exclusivereads": func() CashRegister { return NewGKArray(eps) },
		"QDigest-exclusivereads": func() CashRegister { return NewQDigest(eps, 16) },
		"GKBiased-lockedreads":   func() CashRegister { return NewGKBiased(eps) },
	}
	for name, fresh := range cash {
		t.Run(name, func(t *testing.T) {
			s := NewSafeCashRegister(fresh())
			hammerSafe(t, s, s.Update, n, eps)
		})
	}
	t.Run("DCS-lockedreads", func(t *testing.T) {
		s := NewSafeTurnstile(NewDCS(eps, 16, DyadicConfig{Seed: 7}))
		hammerSafe(t, s, s.Insert, n, eps)
	})
}

// TestSafeCheckpointWhileUpdating checkpoints a summary repeatedly while
// writers hammer it. Under -race this pins the Snapshot contract: the
// marshal runs under the shard's lock, concurrently with lock-free
// snapshot queries, and must leave the summary's answers intact. Every
// published generation must decode into a self-consistent summary whose
// count reflects some prefix of the concurrent stream.
func TestSafeCheckpointWhileUpdating(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh func() CashRegister
	}{
		// A pure reader, and a summary whose queries flush buffered
		// elements (its marshal encodes the un-flushed buffer).
		{"KLL", func() CashRegister { return NewKLL(0.02, 7) }},
		{"GKArray", func() CashRegister { return NewGKArray(0.02) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := faultio.NewMemFS()
			ck, err := checkpoint.Open("/ckpt", checkpoint.WithFS(mem), checkpoint.WithKeep(100))
			if err != nil {
				t.Fatal(err)
			}
			s := NewSafeCashRegister(tc.fresh())
			const n = 20000
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Checkpoint(ck, tc.name); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				s.Update(uint64(i))
			}
			close(stop)
			wg.Wait()
			if _, err := s.Checkpoint(ck, tc.name); err != nil {
				t.Fatal(err)
			}
			target := NewSafeCashRegister(tc.fresh())
			report, err := RecoverCheckpointFS(mem, "/ckpt", target)
			if err != nil {
				t.Fatal(err)
			}
			if report.Label != tc.name {
				t.Fatalf("recovered label %q, want %q", report.Label, tc.name)
			}
			if got := target.Count(); got != n {
				t.Fatalf("recovered count %d, want %d (final checkpoint)", got, n)
			}
			med := target.Quantile(0.5)
			slack := uint64(float64(n) * 0.02)
			if med < n/2-slack || med > n/2+slack {
				t.Errorf("recovered median %d outside %d±%d", med, n/2, slack)
			}
		})
	}
}

// TestSafeSnapshotRestoreRoundTrip pins Restore as the exact inverse of
// Snapshot, for both wrapper flavors.
func TestSafeSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewSafeCashRegister(NewGKAdaptive(0.01))
	for i := 0; i < 5000; i++ {
		s.Update(uint64(i))
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSafeCashRegister(NewGKAdaptive(0.5))
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.Quantile(0.5) != s.Quantile(0.5) {
		t.Fatalf("restored (count %d, median %d) differs from original (count %d, median %d)",
			restored.Count(), restored.Quantile(0.5), s.Count(), s.Quantile(0.5))
	}

	ts := NewSafeTurnstile(NewDCS(0.02, 16, DyadicConfig{Seed: 1}))
	for i := 0; i < 2000; i++ {
		ts.Insert(uint64(i % 65536))
	}
	tblob, err := ts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	trestored := NewSafeTurnstile(NewDCS(0.02, 16, DyadicConfig{Seed: 99}))
	if err := trestored.Restore(tblob); err != nil {
		t.Fatal(err)
	}
	if trestored.Count() != ts.Count() || trestored.Quantile(0.5) != ts.Quantile(0.5) {
		t.Fatal("turnstile restore does not reproduce the original")
	}
}

// TestSafeCheckpointUnsupportedSummary pins the error path for summaries
// without codecs: a clean error, not a panic or silent no-op.
func TestSafeCheckpointUnsupportedSummary(t *testing.T) {
	s := NewSafeCashRegister(NewGKBiased(0.01))
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot on a codec-less summary did not error")
	}
	if err := s.Restore(nil); err == nil {
		t.Fatal("Restore on a codec-less summary did not error")
	}
	mem := faultio.NewMemFS()
	ck, err := checkpoint.Open("/ckpt", checkpoint.WithFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(ck, "gkbiased"); err == nil {
		t.Fatal("Checkpoint on a codec-less summary did not error")
	}
	// Nothing may have been published.
	target := NewGKArray(0.01)
	if _, err := RecoverCheckpointFS(mem, "/ckpt", target); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recovery after failed checkpoint: %v, want ErrNoCheckpoint", err)
	}
}

func TestSafeTurnstileConcurrent(t *testing.T) {
	s := NewSafeTurnstile(NewDCS(0.02, 16, DyadicConfig{Seed: 1}))
	var wg sync.WaitGroup
	const workers = 4
	const per = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := uint64((w*per + i) % 65536)
				s.Insert(x)
				if i%2 == 0 {
					s.Delete(x)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per/2 {
		t.Fatalf("count %d, want %d", s.Count(), workers*per/2)
	}
	_ = s.Quantile(0.5)
	_ = s.Rank(1000)
	if s.SpaceBytes() <= 0 {
		t.Error("space not positive")
	}
}
