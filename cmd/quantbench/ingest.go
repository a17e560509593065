package main

import (
	"sync"

	"streamquantiles/internal/core"
	"streamquantiles/internal/dyadic"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/mrl"
	"streamquantiles/internal/qdigest"
	"streamquantiles/internal/randalg"
	"streamquantiles/internal/sharded"
)

// The ingest path (BENCH_ingest.json) measures what the batched fast
// paths and the sharded writer buy: per summary, item-at-a-time against
// batched updates ("ingest/batch"), and aggregate sharded throughput of
// p batched writer goroutines against one ("ingest/sharded").

// ingestBatch is the batch length of every batched write.
const ingestBatch = 4096

// ingestCash is the cash-register bench roster: every summary with a
// native batch path plus its configuration.
var ingestCash = []struct {
	name  string
	fresh func() core.CashRegister
}{
	{"gkadaptive", func() core.CashRegister { return gk.NewAdaptive(0.001) }},
	{"gktheory", func() core.CashRegister { return gk.NewTheory(0.001) }},
	{"gkarray", func() core.CashRegister { return gk.NewArray(0.001) }},
	{"gkbiased", func() core.CashRegister { return gk.NewBiased(0.001) }},
	{"qdigest", func() core.CashRegister { return qdigest.New(0.001, 24) }},
	{"mrl99", func() core.CashRegister { return mrl.New(0.001, 7) }},
	{"random", func() core.CashRegister { return randalg.New(0.001, 7) }},
	{"kll", func() core.CashRegister { return kll.New(0.001, 7) }},
}

// ingestTurn is the turnstile roster (insert-only workload; deletions
// ride the same AddBatch path).
var ingestTurn = []struct {
	name  string
	fresh func() core.Turnstile
}{
	{"dcm", func() core.Turnstile { return dyadic.New(dyadic.DCM, 0.005, 24, dyadic.Config{Seed: 7}) }},
	{"dcs", func() core.Turnstile { return dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7}) }},
	{"drss", func() core.Turnstile { return dyadic.New(dyadic.DRSS, 0.005, 24, dyadic.Config{Seed: 7}) }},
}

func measureIngest(m *meter, data []uint64) {
	for _, tc := range ingestCash {
		m.speedup("ingest/batch", tc.name, 1,
			func() {
				s := tc.fresh()
				for _, x := range data {
					s.Update(x)
				}
			},
			func() { forBatches(data, tc.fresh().(core.BatchCashRegister).UpdateBatch) })
	}
	for _, tc := range ingestTurn {
		m.speedup("ingest/batch", tc.name, 1,
			func() {
				s := tc.fresh()
				for _, x := range data {
					s.Insert(x)
				}
			},
			func() { forBatches(data, tc.fresh().(core.BatchTurnstile).InsertBatch) })
	}

	// Sharded scaling: p writer goroutines each batch their slice of the
	// stream into a p-shard container. GKArray stands in for the
	// cash-register families, DCS (the study's recommended turnstile
	// summary) for the dyadic ones.
	ps := []int{2, 4, 8}
	m.sweep("ingest/sharded", "gkarray", ps, func(p int) {
		s, err := sharded.NewCashRegister(p, func() core.CashRegister { return gk.NewArray(0.001) })
		check(err)
		inParallel(data, p, func(part []uint64) { forBatches(part, s.UpdateBatch) })
	})
	m.sweep("ingest/sharded", "dcs", ps, func(p int) {
		s, err := sharded.NewTurnstile(p, func() core.Turnstile {
			return dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7})
		})
		check(err)
		inParallel(data, p, func(part []uint64) { forBatches(part, s.InsertBatch) })
	})
}

// forBatches cuts data into ingestBatch-sized batches.
func forBatches(data []uint64, fn func([]uint64)) {
	for lo := 0; lo < len(data); lo += ingestBatch {
		fn(data[lo:min(lo+ingestBatch, len(data))])
	}
}

// inParallel runs fn on p goroutines, each over its 1/p slice of data,
// and returns when the last finishes.
func inParallel(data []uint64, p int, fn func(part []uint64)) {
	per := len(data) / p
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := w*per, (w+1)*per
		if w == p-1 {
			hi = len(data)
		}
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			fn(part)
		}(data[lo:hi])
	}
	wg.Wait()
}
