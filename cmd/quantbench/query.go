package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

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
	"streamquantiles/internal/streamgen"
)

// The query mode measures what the read path buys on this machine,
// mirroring the ingest mode's protocol: a JSON report (BENCH_query.json
// at the repo root is the committed baseline) and a -query-compare mode
// that checks only machine-portable speedup ratios, never absolute
// rates. Three ratios per summary:
//
//   - batch_speedup: one single-pass QuantileBatch over k fractions vs
//     k independent Quantile calls.
//   - cached_speedup: one round of the same k queries answered from a
//     cached query snapshot (exact for Snapshotter families, ε/2-grid
//     for the rest, one solved ols.Post for dcs+post) vs the per-φ
//     baseline.
//
// And per sharded configuration, the epoch cache's payoff: a query
// against an unchanged sharded summary (cache hit) vs a query forced to
// re-fold all shards (a write in between retires the cache).

// queryReport is the schema of BENCH_query.json.
type queryReport struct {
	N          int            `json:"n"`
	Phis       int            `json:"phis"`
	Rounds     int            `json:"rounds"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"numcpu"`
	GoVersion  string         `json:"goversion"`
	Workload   string         `json:"workload"`
	Summaries  []querySummary `json:"summaries"`
	Sharded    []queryShard   `json:"sharded"`
}

// querySummary is one summary's extraction measurement: microseconds
// per full k-fraction extraction, by path.
type querySummary struct {
	Name          string  `json:"name"`
	PerPhiUs      float64 `json:"per_phi_us"`
	BatchUs       float64 `json:"batch_us"`
	BatchSpeedup  float64 `json:"batch_speedup"`
	CachedUs      float64 `json:"cached_us"`
	CachedSpeedup float64 `json:"cached_speedup"`
	CachedExact   bool    `json:"cached_exact"`
}

// queryShard is one sharded configuration's fold-cache measurement:
// microseconds per single quantile query, cold (every query preceded by
// a write, so the epoch cache misses and the shards re-fold in
// parallel) vs hot (quiet summary, cache hit).
type queryShard struct {
	Name     string  `json:"name"`
	Shards   int     `json:"p"`
	ColdUs   float64 `json:"cold_us"`
	HotUs    float64 `json:"hot_us"`
	HotSpeed float64 `json:"hot_speedup"`
}

// queryFns are the three timed paths of one roster entry, each running
// one full extraction of the given fractions.
type queryFns struct {
	perPhi      func(phis []float64)
	batch       func(phis []float64)
	cached      func(phis []float64)
	cachedExact bool
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
		cachedExact: c.Exact(),
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
			batch:       func(phis []float64) { ols.Process(sk, 0).QuantileBatch(phis) },
			cached:      func(phis []float64) { solved.QuantileBatch(phis) },
			cachedExact: true, // one Post IS the snapshot; no grid involved
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

// runQuery measures everything runs times, keeps the conservative
// merge (see mergeQueryReports), and writes the report. CI runs once;
// the committed baseline uses several runs so its ratios lower-bound a
// typical run and the compare tolerance absorbs machine noise instead
// of stacking on top of a lucky baseline.
func runQuery(n, k, runs int, out string) {
	if runs <= 0 {
		runs = 1
	}
	rep := measureQuery(n, k)
	for r := 1; r < runs; r++ {
		fmt.Fprintf(os.Stderr, "-- run %d/%d --\n", r+1, runs)
		rep = mergeQueryReports(rep, measureQuery(n, k))
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("query: %v", err)
	}
	blob = append(blob, '\n')
	if out == "" || out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatalf("query: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

// measureQuery runs one full measurement pass.
func measureQuery(n, k int) queryReport {
	if n <= 0 {
		n = 2_000_000
	}
	if k <= 0 {
		k = 100
	}
	// Round cap, not count: measureRounds stops a trial after ~250ms, so
	// microsecond paths run tens of thousands of rounds (stable timing)
	// while the second-scale per-φ baselines run one.
	const rounds = 1 << 16
	gen := streamgen.Uniform{Bits: 24, Seed: 1}
	data := streamgen.Generate(gen, n)
	phis := make([]float64, k)
	for i := range phis {
		phis[i] = float64(i+1) / float64(k+1)
	}
	rep := queryReport{
		N:          n,
		Phis:       k,
		Rounds:     rounds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Workload:   gen.Name(),
	}

	for _, tc := range queryCases {
		fns := tc.setup(data)
		fns.cached(phis) // warm: build the snapshot outside the timed rounds
		perPhi := measureRounds(rounds, func() { fns.perPhi(phis) })
		batch := measureRounds(rounds, func() { fns.batch(phis) })
		cached := measureRounds(rounds, func() { fns.cached(phis) })
		rep.Summaries = append(rep.Summaries, querySummary{
			Name:          tc.name,
			PerPhiUs:      us(perPhi),
			BatchUs:       us(batch),
			BatchSpeedup:  perPhi.Seconds() / batch.Seconds(),
			CachedUs:      us(cached),
			CachedSpeedup: perPhi.Seconds() / cached.Seconds(),
			CachedExact:   fns.cachedExact,
		})
		fmt.Fprintf(os.Stderr, "%-12s per-phi %10.1f us   batch %10.1f us (%5.1fx)   cached %8.1f us (%5.1fx)\n",
			tc.name, us(perPhi), us(batch), perPhi.Seconds()/batch.Seconds(),
			us(cached), perPhi.Seconds()/cached.Seconds())
	}

	// Sharded fold cache: cold = a one-element write before every query
	// retires the epoch cache, so each query re-folds all P shards (a
	// run merge for KLL, per-shard snapshots for GKArray, a parallel
	// merge tree for DCS); hot = quiet summary, every query reuses the
	// fold.
	const p = 4
	for _, tc := range []struct {
		name  string
		setup func() (query func(), dirty func())
	}{
		{"sharded/gkarray", func() (func(), func()) {
			s, err := sharded.NewCashRegister(p, func() core.CashRegister { return gk.NewArray(0.001) })
			if err != nil {
				panic(err)
			}
			forBatches(data, 4096, s.UpdateBatch)
			return func() { s.Quantile(0.5) }, func() { s.Update(data[0]) }
		}},
		{"sharded/kll", func() (func(), func()) {
			s, err := sharded.NewCashRegister(p, func() core.CashRegister { return kll.New(0.001, 7) })
			if err != nil {
				panic(err)
			}
			forBatches(data, 4096, s.UpdateBatch)
			return func() { s.Quantile(0.5) }, func() { s.Update(data[0]) }
		}},
		{"sharded/dcs", func() (func(), func()) {
			s, err := sharded.NewTurnstile(p, func() core.Turnstile {
				return dyadic.New(dyadic.DCS, 0.005, 24, dyadic.Config{Seed: 7})
			})
			if err != nil {
				panic(err)
			}
			forBatches(data, 4096, s.InsertBatch)
			return func() { s.Quantile(0.5) }, func() { s.Insert(data[0]) }
		}},
	} {
		query, dirty := tc.setup()
		query() // warm
		cold := measureRounds(rounds, func() { dirty(); query() })
		hot := measureRounds(rounds, query)
		rep.Sharded = append(rep.Sharded, queryShard{
			Name: tc.name, Shards: p,
			ColdUs: us(cold), HotUs: us(hot), HotSpeed: cold.Seconds() / hot.Seconds(),
		})
		fmt.Fprintf(os.Stderr, "%-16s P=%d  cold %10.1f us   hot %8.1f us   %6.1fx\n",
			tc.name, p, us(cold), us(hot), cold.Seconds()/hot.Seconds())
	}
	return rep
}

// mergeQueryReports folds run b into a conservatively: per row it keeps
// the *fastest* observed baseline (min per-φ / cold µs) and the
// *slowest* observed optimized path (max batch / cached / hot µs), then
// recomputes the speedups from those. The merged ratio lower-bounds
// every individual run's ratio, so a baseline built from several runs
// sets compare floors that a typical CI run clears even when one
// measurement lands on a throttled scheduler slice.
func mergeQueryReports(a, b queryReport) queryReport {
	bBy := map[string]querySummary{}
	for _, s := range b.Summaries {
		bBy[s.Name] = s
	}
	for i, s := range a.Summaries {
		o, ok := bBy[s.Name]
		if !ok {
			continue
		}
		s.PerPhiUs = min(s.PerPhiUs, o.PerPhiUs)
		s.BatchUs = max(s.BatchUs, o.BatchUs)
		s.CachedUs = max(s.CachedUs, o.CachedUs)
		s.BatchSpeedup = s.PerPhiUs / s.BatchUs
		s.CachedSpeedup = s.PerPhiUs / s.CachedUs
		a.Summaries[i] = s
	}
	bSh := map[string]queryShard{}
	for _, s := range b.Sharded {
		bSh[s.Name] = s
	}
	for i, s := range a.Sharded {
		o, ok := bSh[s.Name]
		if !ok {
			continue
		}
		s.ColdUs = min(s.ColdUs, o.ColdUs)
		s.HotUs = max(s.HotUs, o.HotUs)
		s.HotSpeed = s.ColdUs / s.HotUs
		a.Sharded[i] = s
	}
	return a
}

// measureRounds times fn and returns the per-round duration, keeping
// the fastest of three trials (same correction as measure — shared
// runners jitter, the min is the standard fix — with one more trial
// than the ingest bench because the compared quantities here are ratios
// of microsecond-scale paths, where a single throttled trial skews the
// ratio outside the compare tolerance). A trial stops early once it has
// run for ~250ms — the slow per-φ baselines (QDigest re-walks its whole
// tree per query) already dwarf timer noise in one round, and capping
// keeps the full report to seconds at n in the millions.
func measureRounds(maxRounds int, fn func()) time.Duration {
	var best time.Duration
	for r := 0; r < 3; r++ {
		start := time.Now()
		done := 0
		for i := 0; i < maxRounds; i++ {
			fn()
			done++
			if time.Since(start) > 250*time.Millisecond {
				break
			}
		}
		el := time.Since(start) / time.Duration(done)
		if r == 0 || el < best {
			best = el
		}
	}
	return best
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// runQueryCompare fails (exit 1) when any speedup ratio in the new
// report regressed more than tolFrac below the baseline's. Only ratios
// are compared — absolute µs depend on the machine, but "batching buys
// k×" and "the snapshot cache buys m×" are properties of the code.
func runQueryCompare(oldPath, newPath string, tolFrac float64) {
	oldRep, err := readQuery(oldPath)
	if err != nil {
		fatalf("query-compare: %v", err)
	}
	newRep, err := readQuery(newPath)
	if err != nil {
		fatalf("query-compare: %v", err)
	}
	oldBy := map[string]querySummary{}
	for _, s := range oldRep.Summaries {
		oldBy[s.Name] = s
	}
	failed := false
	check := func(name, what string, got, base float64) {
		limit := base * (1 - tolFrac)
		status := "ok"
		if got < limit {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-12s %-9s %s %.2fx vs baseline %.2fx (floor %.2fx)\n",
			name, status, what, got, base, limit)
	}
	for _, s := range newRep.Summaries {
		o, ok := oldBy[s.Name]
		if !ok {
			fmt.Printf("%-12s NEW      batch %.2fx cached %.2fx (no baseline)\n", s.Name, s.BatchSpeedup, s.CachedSpeedup)
			continue
		}
		check(s.Name, "batch speedup ", s.BatchSpeedup, o.BatchSpeedup)
		check(s.Name, "cached speedup", s.CachedSpeedup, o.CachedSpeedup)
	}
	oldSh := map[string]queryShard{}
	for _, s := range oldRep.Sharded {
		oldSh[s.Name] = s
	}
	for _, s := range newRep.Sharded {
		o, ok := oldSh[s.Name]
		if !ok {
			fmt.Printf("%-16s NEW      hot speedup %.2fx (no baseline)\n", s.Name, s.HotSpeed)
			continue
		}
		check(s.Name, "hot speedup   ", s.HotSpeed, o.HotSpeed)
	}
	if failed {
		fatalf("query-compare: a query speedup regressed more than %.0f%%", tolFrac*100)
	}
}

func readQuery(path string) (*queryReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep queryReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
