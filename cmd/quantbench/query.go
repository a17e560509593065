package main

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/dyadic"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/mrl"
	"streamquantiles/internal/ols"
	"streamquantiles/internal/qdigest"
	"streamquantiles/internal/randalg"
	"streamquantiles/internal/sharded"
	"streamquantiles/internal/snapshot"
)

// The query path (BENCH_query.json) measures what the read path buys.
// Per summary, k independent Quantile calls are the reference for
//
//   - "query/batch": one single-pass QuantileBatch over the k fractions;
//   - "query/cached": the same k queries answered from a cached query
//     snapshot (exact for Snapshotter families, ε/2-grid for the rest,
//     one solved ols.Post for dcs+post).
//
// Per sharded configuration, "query/hot" is the epoch cache's payoff: a
// query forced to re-fold all shards (a write in between retires the
// cache) against a query on the unchanged container (cache hit).

// queryPhis is the number of fractions per extraction.
const queryPhis = 100

// queryShards is the sharded configurations' shard count.
const queryShards = 4

// queryFns are the three timed paths of one roster entry, each running
// one full extraction of the given fractions.
type queryFns struct {
	perPhi, batch, cached func(phis []float64)
}

// summaryQueryFns builds the three paths for a plain summary. The
// cached path answers from a snapshot.Cached view built once (exact
// when the summary flattens exactly, ε/2-grid otherwise — gridEps is
// that fallback's spacing).
func summaryQueryFns(s core.Summary, gridEps float64) *queryFns {
	c := snapshot.NewCached(s, gridEps)
	return &queryFns{
		perPhi: func(phis []float64) {
			for _, phi := range phis {
				s.Quantile(phi)
			}
		},
		batch: func(phis []float64) { core.QuantileBatch(s, phis) },
		cached: func(phis []float64) {
			for _, phi := range phis {
				c.Quantile(phi)
			}
		},
	}
}

// queryCases is the query-mode roster: the ingest rosters' summaries
// (identical configurations) plus dcs+post, the study's §4.3.3
// post-processed DCS — its per-φ baseline re-solves the BLUE tree per
// query, which is exactly the cost the one-solve-per-snapshot batch
// path amortizes away.
var queryCases = []struct {
	name  string
	setup func(data []uint64) *queryFns
}{
	{"gkadaptive", func(data []uint64) *queryFns { return cashFns(gk.NewAdaptive(0.001), data) }},
	{"gktheory", func(data []uint64) *queryFns { return cashFns(gk.NewTheory(0.001), data) }},
	{"gkarray", func(data []uint64) *queryFns { return cashFns(gk.NewArray(0.001), data) }},
	{"gkbiased", func(data []uint64) *queryFns { return cashFns(gk.NewBiased(0.001), data) }},
	{"qdigest", func(data []uint64) *queryFns { return cashFns(qdigest.New(0.001, 24), data) }},
	{"mrl99", func(data []uint64) *queryFns { return cashFns(mrl.New(0.001, 7), data) }},
	{"random", func(data []uint64) *queryFns { return cashFns(randalg.New(0.001, 7), data) }},
	{"kll", func(data []uint64) *queryFns { return cashFns(kll.New(0.001, 7), data) }},
	{"dcm", func(data []uint64) *queryFns {
		return turnFns(dyadic.New(dyadic.DCM, 0.005, 24, dyadic.Config{Seed: 7}), data)
	}},
	{"dcs", func(data []uint64) *queryFns {
		return turnFns(dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7}), data)
	}},
	{"drss", func(data []uint64) *queryFns {
		return turnFns(dyadic.New(dyadic.DRSS, 0.005, 24, dyadic.Config{Seed: 7}), data)
	}},
	{"dcs+post", func(data []uint64) *queryFns {
		sk := dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7})
		core.InsertBatch(sk, data)
		solved := ols.Process(sk, 0)
		return &queryFns{
			perPhi: func(phis []float64) {
				for _, phi := range phis {
					ols.Process(sk, 0).Quantile(phi) // the paper's per-query solve
				}
			},
			batch:  func(phis []float64) { ols.Process(sk, 0).QuantileBatch(phis) },
			cached: func(phis []float64) { solved.QuantileBatch(phis) }, // one Post is the snapshot
		}
	}},
}

func cashFns(s core.CashRegister, data []uint64) *queryFns {
	core.UpdateBatch(s, data)
	return summaryQueryFns(s, 0.0005)
}

func turnFns(s core.Turnstile, data []uint64) *queryFns {
	core.InsertBatch(s, data)
	return summaryQueryFns(s, 0.0025)
}

func measureQuery(m *meter, data []uint64) {
	phis := make([]float64, queryPhis)
	for i := range phis {
		phis[i] = float64(i+1) / float64(queryPhis+1)
	}
	for _, tc := range queryCases {
		fns := tc.setup(data)
		fns.cached(phis) // build the snapshot outside the timed trials
		perPhi := func() { fns.perPhi(phis) }
		m.speedup("query/batch", tc.name, 1, perPhi, func() { fns.batch(phis) })
		m.speedup("query/cached", tc.name, 1, perPhi, func() { fns.cached(phis) })
	}

	// Cold queries re-fold all shards: a run merge for KLL, per-shard
	// snapshots for GKArray, a counter sum into a recycled target for DCS.
	for _, tc := range []struct {
		name  string
		setup func() (query func(), dirty func())
	}{
		{"gkarray", func() (func(), func()) {
			s, err := sharded.NewCashRegister(queryShards, func() core.CashRegister { return gk.NewArray(0.001) })
			check(err)
			forBatches(data, s.UpdateBatch)
			return func() { s.Quantile(0.5) }, func() { s.Update(data[0]) }
		}},
		{"kll", func() (func(), func()) {
			s, err := sharded.NewCashRegister(queryShards, func() core.CashRegister { return kll.New(0.001, 7) })
			check(err)
			forBatches(data, s.UpdateBatch)
			return func() { s.Quantile(0.5) }, func() { s.Update(data[0]) }
		}},
		{"dcs", func() (func(), func()) {
			s, err := sharded.NewTurnstile(queryShards, func() core.Turnstile {
				return dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7})
			})
			check(err)
			forBatches(data, s.InsertBatch)
			return func() { s.Quantile(0.5) }, func() { s.Insert(data[0]) }
		}},
	} {
		query, dirty := tc.setup()
		query() // warm the fold
		m.speedup("query/hot", tc.name, queryShards, func() { dirty(); query() }, query)
	}
}
