package dyadic

import (
	"bytes"
	"fmt"
	"testing"

	"streamquantiles/internal/streamgen"
)

// batchInputs are one chunk-sized stream the probe calls skewed and one
// it does not.
func batchInputs() (zipf, uniform []uint64) {
	zipf = streamgen.Generate(streamgen.Zipf{Bits: 16, S: 1.1, Seed: 3}, batchChunk)
	uniform = streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 4}, batchChunk)
	return zipf, uniform
}

// TestProbeOutcomes pins which path each input takes under AddBatch.
func TestProbeOutcomes(t *testing.T) {
	zipf, uniform := batchInputs()
	if !skewed(zipf) {
		t.Error("probe sends a Zipf(1.1) chunk down the all-distinct path")
	}
	if skewed(uniform) {
		t.Error("probe coalesces a uniform chunk")
	}
	if skewed(zipf[:1]) {
		t.Error("probe coalesces a one-element chunk")
	}
}

// TestAddBatchPathsAgree forces each path on the same data, whichever
// the probe would pick, and checks both against per-item updates:
// insert the whole input, then delete every other element.
func TestAddBatchPathsAgree(t *testing.T) {
	zipf, uniform := batchInputs()
	for _, k := range kinds() {
		for _, in := range []struct {
			name string
			data []uint64
		}{{"zipf", zipf}, {"uniform", uniform}} {
			var dels []uint64
			for i := 0; i < len(in.data); i += 2 {
				dels = append(dels, in.data[i])
			}
			ref := New(k, 0.05, 16, Config{Seed: 7})
			feed(ref, in.data)
			for _, x := range dels {
				ref.Delete(x)
			}
			want, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, coalesce := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%s/coalesce=%v", k, in.name, coalesce), func(t *testing.T) {
					s := New(k, 0.05, 16, Config{Seed: 7})
					forcedAdd(s, in.data, 1, coalesce)
					forcedAdd(s, dels, -1, coalesce)
					got, err := s.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatal("forced batch path differs from per-item state")
					}
					if err := s.Invariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// forcedAdd is AddBatch with the probe's answer replaced by coalesce.
func forcedAdd(s *Sketch, xs []uint64, delta int64, coalesce bool) {
	s.n += delta * int64(len(xs))
	var sc batchScratch
	for len(xs) > 0 {
		m := min(len(xs), batchChunk)
		if coalesce {
			s.addRuns(&sc, xs[:m], delta)
		} else {
			s.addLevels(&sc, xs[:m], delta)
		}
		xs = xs[m:]
	}
}

// TestAddBatchAllocFree: neither path allocates; the scratch is pooled
// and the sketches' chunk buffers stay on their stacks.
func TestAddBatchAllocFree(t *testing.T) {
	zipf, uniform := batchInputs()
	for _, k := range kinds() {
		s := New(k, 0.05, 16, Config{Seed: 7})
		for _, in := range [][]uint64{zipf, uniform} {
			if allocs := testing.AllocsPerRun(50, func() { s.InsertBatch(in); s.DeleteBatch(in) }); allocs != 0 {
				t.Errorf("%v: AddBatch allocates %v times per call pair", k, allocs)
			}
		}
	}
}

// BenchmarkDyadicAddBatch measures batch ingest at the turnstile-churn
// configuration (ε=0.005, u=2^24): uniform data in 4096-element batches,
// which takes the level-major path like quantbench's dcm/dcs ingest
// rows, and Zipf(1.1) in 512-element batches, about one shard's share of
// a sharded writer flush, which the probe coalesces.
func BenchmarkDyadicAddBatch(b *testing.B) {
	const ring = 1 << 18
	for _, k := range []Kind{DCM, DCS} {
		for _, in := range []struct {
			name  string
			gen   streamgen.Generator
			batch int
		}{
			{"uniform", streamgen.Uniform{Bits: 24, Seed: 1}, 4096},
			{"zipf", streamgen.Zipf{Bits: 24, S: 1.1, Seed: 1}, 512},
		} {
			data := streamgen.Generate(in.gen, ring)
			b.Run(fmt.Sprintf("%v/%s-%d", k, in.name, in.batch), func(b *testing.B) {
				s := New(k, 0.005, 24, Config{Seed: 7})
				b.ReportAllocs()
				b.ResetTimer()
				for i, off := 0, 0; i < b.N; i++ {
					s.InsertBatch(data[off : off+in.batch])
					off = (off + in.batch) % ring
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.batch), "ns/elem")
			})
		}
	}
}
