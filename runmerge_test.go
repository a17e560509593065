package streamquantiles

import (
	"bytes"
	"encoding"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The sampling families rebuild their query snapshots by merging their
// sorted buffers, sorting any unsorted one as a copy in per-call
// scratch. Callers may share one summary between readers, so the
// rebuild must never write summary state: these tests race readers
// against each other and against a writer (run them under -race) and
// compare every answer with an unwrapped twin fed the same batches.

var runMergeFamilies = []struct {
	name  string
	fresh func() CashRegister
}{
	{"kll", func() CashRegister { return NewKLL(0.01, 7) }},
	{"mrl99", func() CashRegister { return NewMRL99(0.01, 7) }},
	{"random", func() CashRegister { return NewRandom(0.01, 7) }},
}

func runMergeBatch(round int) []uint64 {
	rng := rand.New(rand.NewSource(int64(round + 1)))
	xs := make([]uint64, 3001)
	for i := range xs {
		xs[i] = uint64(rng.Intn(1 << 20))
	}
	return xs
}

func TestConcurrentSnapshotRebuilds(t *testing.T) {
	phis := EvenPhis(0.01)
	xs := []uint64{0, 1 << 10, 1 << 15, 1 << 18, 1 << 19, 3 << 18, 1 << 20}
	for _, fam := range runMergeFamilies {
		t.Run(fam.name, func(t *testing.T) {
			safe := NewSafeCashRegister(fam.fresh())
			twin := fam.fresh()
			for round := 0; round < 6; round++ {
				batch := runMergeBatch(round)
				safe.UpdateBatch(batch)
				UpdateBatch(twin, batch)
				wantQ, wantR := QuantileBatch(twin, phis), RankBatch(twin, xs)
				wantBlob, err := twin.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}

				const readers = 4
				errs := make(chan error, readers)
				var wg sync.WaitGroup
				for g := 0; g < readers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got := safe.QuantileBatch(phis); !slices.Equal(got, wantQ) {
							errs <- fmt.Errorf("round %d: QuantileBatch differs from the twin", round)
							return
						}
						if got := safe.RankBatch(xs); !slices.Equal(got, wantR) {
							errs <- fmt.Errorf("round %d: RankBatch differs from the twin", round)
							return
						}
						blob, err := safe.Snapshot()
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(blob, wantBlob) {
							errs <- fmt.Errorf("round %d: encoding differs from the twin after queries", round)
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestSnapshotRebuildsRaceWriter(t *testing.T) {
	phis := EvenPhis(0.05)
	for _, fam := range runMergeFamilies {
		t.Run(fam.name, func(t *testing.T) {
			safe := NewSafeCashRegister(fam.fresh())
			twin := fam.fresh()
			safe.UpdateBatch(runMergeBatch(0))
			UpdateBatch(twin, runMergeBatch(0))

			done := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						safe.QuantileBatch(phis)
						safe.Rank(1 << 19)
					}
				}()
			}
			for round := 1; round < 20; round++ {
				safe.UpdateBatch(runMergeBatch(round))
				UpdateBatch(twin, runMergeBatch(round))
			}
			close(done)
			wg.Wait()
			if got, want := safe.QuantileBatch(phis), QuantileBatch(twin, phis); !slices.Equal(got, want) {
				t.Fatal("answers after the racing writes differ from the twin")
			}
		})
	}
}
