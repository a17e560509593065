package streamquantiles

import (
	"fmt"
	"sort"
	"testing"
)

// Steady-state allocation pins. Per-item update cost is what the paper
// measures, and a heap allocation per element (or per queried fraction)
// is the cheapest way to lose it without any answer changing. Each row
// counts real allocations with testing.AllocsPerRun after a warm-up, so
// a boxed argument, a formatted message, a per-element make or append
// onto an unsized slice, a per-fraction make in a query sweep, or a
// sync.Pool Get whose Put went missing all show up as a count above the
// pin.

// allocRuns is the AllocsPerRun run count. AllocsPerRun reports the
// integer mean per run, so an occasional pool refill after a GC (a
// drained sync.Pool) cannot move a row that is 0 in the steady state.
const allocRuns = 50

// allocChunk is the ingestion rows' chunk length: each run ingests one
// chunk, so a row's per-element figure is its count over allocChunk.
const allocChunk = 4096

// allocRow is one pin: want is the allocation count of one op, exact
// unless the row gives a why, which marks a path that allocates by
// design and makes want its ceiling.
type allocRow struct {
	name string
	op   func()
	want float64
	why  string
}

func (r allocRow) check(t *testing.T) {
	t.Helper()
	got := testing.AllocsPerRun(allocRuns, r.op)
	switch {
	case r.why != "" && got > r.want:
		t.Errorf("%s: %v allocs per op, over the ceiling %v (%s)", r.name, got, r.want, r.why)
	case r.why == "" && got != r.want:
		t.Errorf("%s: %v allocs per op, want exactly %v", r.name, got, r.want)
	}
}

// sortedNames lists m's keys in order, so rows run and report
// deterministically.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// allocTargets builds the roster and three P = 4 containers — KLL (one
// run fold), GKArray (the rank descent over per-shard snapshots) and
// DCS (one merged sketch) — each fed data, and the OLS snapshot of a
// fed DCS.
func allocTargets(t *testing.T, data []uint64) map[string]Summary {
	targets := map[string]Summary{
		"ShardedKLL":     mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.01, 7) }),
		"ShardedGKArray": mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.01) }),
		"ShardedDCS":     mustShardedTurn(t, 4, func() Turnstile { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) }),
	}
	for name, s := range summaryRoster() {
		targets[name] = s.(Summary)
	}
	for _, s := range targets {
		switch s := s.(type) {
		case CashRegister:
			UpdateBatch(s, data)
		case Turnstile:
			InsertBatch(s, data)
		}
	}
	dcs := NewDCS(0.05, 16, DyadicConfig{Seed: 1})
	InsertBatch(dcs, data)
	targets["Post(on DCS)"] = PostProcess(dcs, 0)
	return targets
}

// ingestRows builds the write-path rows of one target: its scalar path
// over a chunk, and its native batch path when it has one. Turnstile
// rows insert and then delete the chunk, keeping the state steady.
func ingestRows(name string, s any, data []uint64) []allocRow {
	off := 0
	next := func() []uint64 {
		c := data[off : off+allocChunk]
		off = (off + allocChunk) % (len(data) - allocChunk)
		return c
	}
	var rows []allocRow
	add := func(path string, op func()) { rows = append(rows, allocRow{name: name + "/" + path, op: op}) }
	switch s := s.(type) {
	case interface{ Update(uint64) }:
		add("Update", func() {
			for _, x := range next() {
				s.Update(x)
			}
		})
		if b, ok := s.(interface{ UpdateBatch([]uint64) }); ok {
			add("UpdateBatch", func() { b.UpdateBatch(next()) })
		}
	case interface {
		Insert(uint64)
		Delete(uint64)
	}:
		add("Insert+Delete", func() {
			for _, x := range next() {
				s.Insert(x)
				s.Delete(x)
			}
		})
		if b, ok := s.(interface {
			InsertBatch([]uint64)
			DeleteBatch([]uint64)
		}); ok {
			add("InsertBatch+DeleteBatch", func() {
				c := next()
				b.InsertBatch(c)
				b.DeleteBatch(c)
			})
		}
	}
	return rows
}

// queryRows pins the per-call allocations of a quiet summary's batch
// queries at 10 and at 1000 fractions or probes, to the same counts:
// a query allocates its result plus a fixed working set, never per
// fraction.
func queryRows(name string, s Summary, quantile, rank float64) []allocRow {
	var rows []allocRow
	for _, k := range []int{10, 1000} {
		phis := make([]float64, k)
		xs := make([]uint64, k)
		for i := range phis {
			phis[i] = (float64(i) + 0.5) / float64(k)
			xs[i] = uint64(i) * (1 << 16) / uint64(k)
		}
		rows = append(rows,
			allocRow{name: fmt.Sprintf("%s/QuantileBatch(%d)", name, k), want: quantile,
				op: func() { QuantileBatch(s, phis) }},
			allocRow{name: fmt.Sprintf("%s/RankBatch(%d)", name, k), want: rank,
				op: func() { RankBatch(s, xs) }})
	}
	return rows
}

// TestSteadyStateAllocations pins the allocation counts of the write,
// query and checkpoint paths over the roster, three P = 4 containers
// and both writer handles. It also covers every sync.Pool on those
// paths — core's runs scratch, q-digest's radix and fold scratch, the
// sharded descent buffers and the codec's encode buffers — since a Get
// without its Put reads as one allocation more per call.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	data := batchTestData(1 << 16)

	t.Run("ingest", func(t *testing.T) {
		// Every write path not listed here allocates nothing amortized
		// over a chunk.
		byDesign := map[string]struct {
			ceiling float64
			why     string
		}{
			"GKAdaptive/Update":      {3 * allocChunk, "each insert links a skip-list node and a heap entry (3/elem)"},
			"GKTheory/Update":        {8 * allocChunk, "each insert links a skip-list node, and compress rebuilds its bands (7.5/elem)"},
			"GKAdaptive/UpdateBatch": {8, "each batch rebuilds the skip list under a fresh header and RNG (5/batch)"},
			"GKTheory/UpdateBatch":   {8, "each batch rebuilds the skip list under a fresh header and RNG (5/batch)"},
			"GKBiased/Update":        {16, "a flush resizes the buffer to half the tuple count (14/chunk)"},
			"GKBiased/UpdateBatch":   {16, "a flush resizes the buffer to half the tuple count (10/batch)"},
			"Random/Update":          {8, "collapsing two full buffers allocates the merged one (6/chunk)"},
			"Random/UpdateBatch":     {4, "collapsing two full buffers allocates the merged one (2/batch)"},
			"Windowed/Update":        {allocChunk * 3 / 4, "every block of the window starts a fresh summary (0.68/elem)"},
		}
		targets := map[string]any{}
		for name, s := range allocTargets(t, data) {
			targets[name] = s
		}
		kw := targets["ShardedKLL"].(*ShardedCashRegister).AcquireWriter()
		dw := targets["ShardedDCS"].(*ShardedTurnstile).AcquireWriter()
		defer kw.Close()
		defer dw.Close()
		targets["ShardedKLL.CashWriter"], targets["ShardedDCS.TurnWriter"] = kw, dw
		for _, name := range sortedNames(targets) {
			for _, r := range ingestRows(name, targets[name], data) {
				if d, ok := byDesign[r.name]; ok {
					r.want, r.why = d.ceiling, d.why
				}
				r.check(t)
			}
		}
	})

	t.Run("query", func(t *testing.T) {
		// {QuantileBatch, RankBatch} allocations per call; 1 is the
		// result slice alone. The GK family and the dyadic sketches
		// answer from a per-call working set; Windowed merges clones
		// of its live blocks' summaries on every query.
		want := map[string][2]float64{
			"GKAdaptive": {9, 6}, "GKTheory": {9, 6}, "GKArray": {9, 6}, "GKBiased": {2, 6},
			"QDigest": {1, 1}, "MRL99": {1, 1}, "Random": {1, 1}, "KLL": {1, 1},
			"Windowed": {845, 845},
			"DCM":      {6, 4}, "DCS": {13, 11}, "DRSS": {13, 11}, "Post(on DCS)": {5, 1},
			"ShardedKLL": {1, 1}, "ShardedGKArray": {1, 1}, "ShardedDCS": {13, 11},
		}
		targets := allocTargets(t, data)
		for _, name := range sortedNames(targets) {
			w, ok := want[name]
			if !ok {
				t.Errorf("%s has no query allocation pin", name)
				continue
			}
			for _, r := range queryRows(name, targets[name], w[0], w[1]) {
				r.check(t)
			}
		}
	})

	t.Run("sharded-marshal", func(t *testing.T) {
		// Per-shard encode buffers come from core.EncodeBufPool and the
		// frame is one exactly-sized allocation, so a save costs the
		// same count at every stream length. AllocsPerRun measures at
		// GOMAXPROCS 1, where the per-shard encodes run on the calling
		// goroutine; a wider fan-out adds its worker spawns.
		s := mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.01, 7) })
		fed := 0
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			for ; fed < n; fed += allocChunk {
				s.UpdateBatch(data[fed%len(data):][:allocChunk]) // round-robin: every shard holds data
			}
			allocRow{name: fmt.Sprintf("ShardedKLL/MarshalBinary(n=%d)", n), want: 4, op: func() {
				if _, err := s.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
			}}.check(t)
		}
	})
}
