package qdigest

import (
	"testing"
	"time"

	"streamquantiles/internal/streamgen"
)

// The benchmark roster's q-digest shape: ε = 0.001 over a 2^24
// universe, n = 2^18 uniform elements written in 4096-element batches.
const (
	rosterEps   = 0.001
	rosterBits  = 24
	rosterN     = 1 << 18
	rosterBatch = 4096
)

// BenchmarkQDigestRosterIngest streams the roster's input through a
// fresh digest per op and reports the mean cost per element and the
// slowest single batch call, which is the one that runs a COMPRESS.
func BenchmarkQDigestRosterIngest(b *testing.B) {
	data := streamgen.Generate(streamgen.Uniform{Bits: rosterBits, Seed: 1}, rosterN)
	var worst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(rosterEps, rosterBits)
		for off := 0; off < len(data); off += rosterBatch {
			t0 := time.Now()
			d.UpdateBatch(data[off : off+rosterBatch])
			worst = max(worst, time.Since(t0))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rosterN), "ns/elem")
	b.ReportMetric(float64(worst.Microseconds()), "worst-call-us")
}

// BenchmarkQDigestCompress times the COMPRESS the roster's stream runs
// when it doubles to 2^17 elements, on that state restored before every
// op. At steady state it measures 0 allocations per op; ReportAllocs
// only prints that, and the root package's TestSteadyStateAllocations
// pins the ingestion paths that run COMPRESS.
func BenchmarkQDigestCompress(b *testing.B) {
	data := streamgen.Generate(streamgen.Uniform{Bits: rosterBits, Seed: 1}, rosterN)
	d := New(rosterEps, rosterBits)
	d.UpdateBatch(data[:rosterN/2-1])
	d.Flush()
	d.settle()
	ids, ws := append([]uint64(nil), d.nodes.keys...), append([]int64(nil), d.nodes.ws...)
	d.n = rosterN / 2
	restoreAndCompress := func() {
		d.nodes.keys = append(d.nodes.keys[:0], ids...)
		d.nodes.ws = append(d.nodes.ws[:0], ws...)
		d.compress()
	}
	restoreAndCompress() // grows the scratch once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreAndCompress()
	}
	b.ReportMetric(float64(len(ids)), "nodes")
}
