package streamquantiles

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/faultio"
)

// Tests for the parallel checkpoint path: the fan-out marshal/unmarshal
// of the sharded containers must be byte-identical to the sequential
// codec at every worker count, survive the crash matrix mid-fan-out,
// and stall a writer for at most its own shard's marshal. This
// container runs GOMAXPROCS=1 by default, where fanout degrades to the
// inline sequential loop; the tests raise GOMAXPROCS so the spawned
// worker pool actually executes (and, under -race, is checked).

// withGOMAXPROCS raises GOMAXPROCS for the duration of a test so the
// fan-out's spawned-goroutine path runs even on single-core machines.
func withGOMAXPROCS(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// parallelCodecCases covers both container kinds and, via the GK shrink,
// a topology carrying frozen rank components — every part kind the
// fan-out dispatches.
func buildParallelCash(t *testing.T, withComps bool) *ShardedCashRegister {
	t.Helper()
	fresh := func() CashRegister { return NewKLL(0.01, 7) }
	if withComps {
		fresh = func() CashRegister { return NewGKArray(0.01) }
	}
	s := mustShardedCash(t, 5, fresh)
	feedRange(s, 0, 4000)
	if withComps {
		// Shrinking a GK container freezes the retired shards as
		// query-time rank components, which travel in the same frame.
		if err := s.Reshard(2); err != nil {
			t.Fatal(err)
		}
		feedRange(s, 4000, 5000)
		if s.Components() == 0 {
			t.Fatal("shrink produced no frozen components; the test no longer covers the component arm of the fan-out")
		}
	}
	return s
}

func TestParallelMarshalByteIdentical(t *testing.T) {
	withGOMAXPROCS(t, 4)
	for _, tc := range []struct {
		name      string
		withComps bool
	}{{"kll-live-shards", false}, {"gkarray-frozen-components", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildParallelCash(t, tc.withComps)
			seq, err := s.MarshalBinaryWorkers(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 2, 64} {
				par, err := s.MarshalBinaryWorkers(w)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(par, seq) {
					t.Fatalf("workers=%d marshal produced %d bytes differing from the sequential %d-byte encoding", w, len(par), len(seq))
				}
			}

			// Decode fan-out: a parallel decode of the sequential bytes
			// restores state that re-marshals identically and answers
			// queries exactly like a sequential decode.
			for _, w := range []int{0, 3} {
				dec := buildParallelCash(t, tc.withComps)
				if err := dec.UnmarshalBinaryWorkers(seq, w); err != nil {
					t.Fatal(err)
				}
				round, err := dec.MarshalBinaryWorkers(1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(round, seq) {
					t.Fatalf("workers=%d decode round-trips to %d bytes differing from the %d-byte original", w, len(round), len(seq))
				}
				if err := dec.Invariants(); err != nil {
					t.Fatalf("workers=%d decode invariants: %v", w, err)
				}
				if a, b := dec.Count(), s.Count(); a != b {
					t.Fatalf("workers=%d decode count %d, want %d", w, a, b)
				}
			}
		})
	}
}

func TestParallelMarshalTurnstileByteIdentical(t *testing.T) {
	withGOMAXPROCS(t, 4)
	s := mustShardedTurn(t, 5, func() Turnstile { return NewDCM(0.05, 16, DyadicConfig{Seed: 7}) })
	feedRange(s, 0, 4000)
	seq, err := s.MarshalBinaryWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.MarshalBinaryWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(par, seq) {
		t.Fatalf("parallel turnstile marshal produced %d bytes differing from the sequential %d-byte encoding", len(par), len(seq))
	}
	dec := mustShardedTurn(t, 2, func() Turnstile { return NewDCM(0.05, 16, DyadicConfig{Seed: 7}) })
	if err := dec.UnmarshalBinaryWorkers(seq, 0); err != nil {
		t.Fatal(err)
	}
	round, err := dec.MarshalBinaryWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round, seq) {
		t.Fatalf("parallel turnstile decode round-trips to %d bytes differing from the %d-byte original", len(round), len(seq))
	}
}

// TestCrashRecoveryDuringParallelSave runs the sharded rows of the
// crash matrix with the checkpoint payloads produced by the parallel
// fan-out under a raised GOMAXPROCS: every fault class must still leave
// one complete generation behind — never a torn hybrid — because the
// fan-out is byte-identical to the sequential codec and the durability
// protocol (temp → fsync → rename) is untouched by how the payload was
// produced.
func TestCrashRecoveryDuringParallelSave(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const dir = "/ckpt"
	for _, ms := range shardedMatrixCases {
		for _, fc := range faultClasses {
			t.Run(ms.name+"/"+fc.name, func(t *testing.T) {
				s := ms.fresh(t)
				feedRange(s, 0, 3000)
				blob0, err := s.MarshalBinaryWorkers(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Reshard(ms.reshard); err != nil {
					t.Fatal(err)
				}
				feedRange(s, 3000, 5000)
				blob1, err := s.MarshalBinaryWorkers(0)
				if err != nil {
					t.Fatal(err)
				}
				// The fan-out must not change a single byte relative to
				// the sequential encoding the goldens pin.
				seq1, err := s.MarshalBinaryWorkers(1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seq1, blob1) {
					t.Fatalf("parallel marshal differs from sequential by %d vs %d bytes", len(blob1), len(seq1))
				}

				mem := faultio.NewMemFS()
				ck, err := checkpoint.Open(dir, checkpoint.WithFS(mem))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ck.Save(ms.name, blob0); err != nil {
					t.Fatal(err)
				}
				want, rfs := fc.run(t, mem, dir, ms.name, blob0, blob1)

				rec := ms.fresh(t)
				report, err := RecoverCheckpointFS(rfs, dir, rec)
				if err != nil {
					t.Fatalf("recovery: %v (report %v)", err, report)
				}
				got, err := rec.MarshalBinaryWorkers(1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("recovered state re-marshals to %d bytes differing from the %d-byte checkpoint payload: recovery produced a torn topology", len(got), len(want))
				}
				if err := rec.Invariants(); err != nil {
					t.Fatalf("recovered container invariants: %v", err)
				}
				// Per-candidate decode timing reaches the report when
				// recovery runs validation.
				if len(report.Candidates) == 0 {
					t.Fatal("report carries no candidate timings")
				}
				loaded := 0
				for _, cand := range report.Candidates {
					if cand.Loaded {
						loaded++
						if cand.File != report.File || cand.Generation != report.Generation {
							t.Fatalf("loaded candidate %q gen %d does not match report %q gen %d",
								cand.File, cand.Generation, report.File, report.Generation)
						}
					}
				}
				if loaded != 1 {
					t.Fatalf("%d candidates marked loaded, want exactly 1 (report %+v)", loaded, report.Candidates)
				}
			})
		}
	}
}

// marshalGate lets exactly one shard's marshal block until released:
// the first MarshalBinary to arrive claims the gate, signals held, and
// parks; every other shard marshals straight through. The concurrency
// test uses it to hold one shard's lock mid-checkpoint while proving
// writers on the other shards keep ingesting.
type marshalGate struct {
	claimed atomic.Bool
	held    chan struct{} // closed once the claiming marshal is parked
	release chan struct{} // closed by the test to let it finish
}

// gatedCash wraps a summary so its marshal can be gated; everything
// else delegates to the embedded summary.
type gatedCash struct {
	CashRegister
	gate *marshalGate
}

func (g *gatedCash) MarshalBinary() ([]byte, error) {
	if g.gate.claimed.CompareAndSwap(false, true) {
		close(g.gate.held)
		<-g.gate.release
	}
	return g.CashRegister.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
}

func (g *gatedCash) Invariants() error {
	if ic, ok := g.CashRegister.(interface{ Invariants() error }); ok {
		return ic.Invariants()
	}
	return nil
}

// shardedMix mirrors internal/sharded's SplitMix64 affinity router so
// the test can aim batches at specific shards from outside the package.
func shardedMix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestWritersDuringParallelCheckpoint pins the stop-the-shard contract:
// while one shard's marshal is parked mid-checkpoint (holding that
// shard's lock), writers routed to every other shard complete — a
// writer stalls for at most one shard marshal, never the whole save.
// Run under -race this also exercises the fan-out pool against
// concurrent ingestion.
func TestWritersDuringParallelCheckpoint(t *testing.T) {
	withGOMAXPROCS(t, 4)
	const p = 4
	gate := &marshalGate{held: make(chan struct{}), release: make(chan struct{})}
	s := mustShardedCash(t, p, func() CashRegister {
		return &gatedCash{CashRegister: NewKLL(0.01, 7), gate: gate}
	})
	feedRange(s, 0, 1000)

	// Observe which shards' marshals complete; the one still open when
	// the gate is held is the parked shard.
	var ckptDone [p]atomic.Bool
	s.SetCheckpointObserver(func(shard int) func() {
		return func() { ckptDone[shard].Store(true) }
	})

	marshalErr := make(chan error, 1)
	go func() {
		_, err := s.MarshalBinaryWorkers(0)
		marshalErr <- err
	}()
	<-gate.held

	// Wait until every non-parked shard's marshal has finished, so the
	// only lock still held by the checkpoint is the parked shard's.
	deadline := time.Now().Add(10 * time.Second)
	parked := -1
	for parked < 0 {
		open, last := 0, -1
		for i := 0; i < p; i++ {
			if !ckptDone[i].Load() {
				open, last = open+1, i
			}
		}
		if open == 1 {
			parked = last
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shard marshals still open while the gate is held", open)
		}
		runtime.Gosched()
	}

	// Affinity keys for every shard except the parked one.
	keys := map[int]uint64{}
	for k := uint64(0); len(keys) < p; k++ {
		keys[int(shardedMix(k)%p)] = k
	}
	writersDone := make(chan int, p)
	for shard, key := range keys {
		if shard == parked {
			continue
		}
		go func(shard int, key uint64) {
			s.UpdateBatchAffinity(key, []uint64{1, 2, 3})
			writersDone <- shard
		}(shard, key)
	}
	// All p−1 writers on non-parked shards must complete while the
	// checkpoint is still in flight (the gate is still closed).
	for i := 0; i < p-1; i++ {
		select {
		case <-writersDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("writer on a non-parked shard stalled behind the parked shard %d's marshal", parked)
		}
	}
	select {
	case err := <-marshalErr:
		t.Fatalf("checkpoint finished (err=%v) before the gate was released; the test never held a shard", err)
	default:
	}

	// A writer aimed at the parked shard stalls — that is the one
	// permitted stall window — and completes once the marshal does.
	parkedDone := make(chan struct{})
	go func() {
		s.UpdateBatchAffinity(keys[parked], []uint64{4, 5, 6})
		close(parkedDone)
	}()
	close(gate.release)
	if err := <-marshalErr; err != nil {
		t.Fatalf("parallel marshal: %v", err)
	}
	select {
	case <-parkedDone:
	case <-time.After(10 * time.Second):
		t.Fatal("writer on the parked shard never completed after the marshal finished")
	}
	s.SetCheckpointObserver(nil)
	if err := s.Invariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkShardedMarshalAllocs measures the allocation-flat marshal
// path: per-shard encode buffers come from core.EncodeBufPool and the
// frame is assembled into one exactly-sized allocation. It only prints
// the count (9 allocs per save at GOMAXPROCS 2, the fan-out's spawns
// included); TestSteadyStateAllocations pins the serial count, 4 at
// every stream length.
func BenchmarkShardedMarshalAllocs(b *testing.B) {
	s := mustShardedCash(b, 4, func() CashRegister { return NewKLL(0.01, 7) })
	feedRange(s, 0, 100_000)
	if _, err := s.MarshalBinary(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
