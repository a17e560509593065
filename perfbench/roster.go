package main

import (
	"fmt"
	"slices"

	sq "streamquantiles"
	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/faultio"
	"streamquantiles/internal/streamgen"
)

// The paper-roster workload is the paper's own measurement (§4), run in
// one goroutine: each summary of the study, behind its goroutine-safe
// wrapper, ingests the same uniform stream in batches, answers a
// 100-φ batch query at fixed intervals (once rebuilding its query
// snapshot, once from the cache), is checkpointed and recovered, and has
// its answers scored against the exact quantiles. The sharded
// containers and writer handles are not involved.

// rosterMember is one summary of the study.
type rosterMember struct {
	layer string // per-layer metric prefix
	eps   float64
	cash  func() sq.CashRegister
	turn  func() *sq.DyadicSketch
}

// roster matches the committed BENCH_ingest roster: ε=0.001 for the
// cash-register summaries and ε=0.005 for the dyadic ones, universe 2^24.
var roster = []rosterMember{
	{layer: "gk.adaptive", eps: 0.001, cash: func() sq.CashRegister { return sq.NewGKAdaptive(0.001) }},
	{layer: "gk.theory", eps: 0.001, cash: func() sq.CashRegister { return sq.NewGKTheory(0.001) }},
	{layer: "gk.array", eps: 0.001, cash: func() sq.CashRegister { return sq.NewGKArray(0.001) }},
	{layer: "qdigest", eps: 0.001, cash: func() sq.CashRegister { return sq.NewQDigest(0.001, 24) }},
	{layer: "mrl", eps: 0.001, cash: func() sq.CashRegister { return sq.NewMRL99(0.001, 7) }},
	{layer: "randalg", eps: 0.001, cash: func() sq.CashRegister { return sq.NewRandom(0.001, 7) }},
	{layer: "kll", eps: 0.001, cash: func() sq.CashRegister { return sq.NewKLL(0.001, 7) }},
	{layer: "dyadic.dcm", eps: 0.005, turn: func() *sq.DyadicSketch { return sq.NewDCM(0.005, 24, sq.DyadicConfig{Seed: 7}) }},
	{layer: "dyadic.dcs", eps: 0.005, turn: func() *sq.DyadicSketch { return sq.NewDCS(0.005, 24, sq.DyadicConfig{Seed: 7}) }},
}

// postLayer is DCS+Post: the OLS post-processing of the dyadic.dcs
// sketch, solved afresh at every query point.
const (
	postLayer = "ols.post"
	postOf    = "dyadic.dcs"
	postEps   = 0.005
)

// safeSummary is the surface of both goroutine-safe wrappers.
type safeSummary interface {
	QuantileBatch(phis []float64) []uint64
	SpaceBytes() int64
	Snapshot() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// build wraps a fresh summary and returns the wrapper, its batch write,
// and for the dyadic sketches the raw sketch (read only in this single
// goroutine, between writes, for post-processing).
func (m rosterMember) build() (safeSummary, func([]uint64), *sq.DyadicSketch) {
	if m.cash != nil {
		w := sq.NewSafeCashRegister(m.cash())
		return w, w.UpdateBatch, nil
	}
	sk := m.turn()
	w := sq.NewSafeTurnstile(sk)
	return w, w.InsertBatch, sk
}

type rosterSizes struct {
	n          int // stream length per round
	batch      int // elements per write call
	queryEvery int // elements between query points
	warm       int // elements each summary ingests during set-up
	setups     int
}

func rosterSizesFor(small bool) rosterSizes {
	if small {
		return rosterSizes{n: 1 << 14, batch: 4096, queryEvery: 1 << 12, warm: 1 << 12, setups: 2}
	}
	return rosterSizes{n: 1 << 18, batch: 4096, queryEvery: 1 << 13, warm: 1 << 15, setups: 5}
}

// memberSamples is one summary's measurements over every round of a phase.
type memberSamples struct {
	callNs, rebuildNs windowed // per write call, per query point; one window per round
	roundNs, hitNs    []int64  // per round's total write time; per query point
	saveNs, recoverNs []int64  // per round
	answers           []uint64
	space             int64
	errRatio          float64
}

func runRoster(r *run, cfg config) error {
	z := rosterSizesFor(cfg.small)
	gen := streamgen.Uniform{Bits: 24, Seed: cfg.seed}
	data := streamgen.Generate(gen, z.n)
	r.inputs = append(r.inputs, fmt.Sprintf("%s in random order, n=%d per round, batch %d, query every %d",
		gen.Name(), z.n, z.batch, z.queryEvery))
	oracle := exact.New(data)
	phis := probePhis()

	var setupNs []int64
	for i := 0; i < z.setups; i++ {
		t0 := now()
		for _, m := range roster {
			w, ingest, sk := m.build()
			for off := 0; off < z.warm; off += z.batch {
				ingest(data[off : off+z.batch])
			}
			w.QuantileBatch(phis)
			if m.layer == postOf {
				sq.PostProcess(sk, 0).QuantileBatch(phis)
			}
		}
		setupNs = append(setupNs, now()-t0)
	}
	r.setSamples("setup_s", "s", median(setupNs)/1e9, len(setupNs))

	if !cfg.trace {
		members, err := rosterPhase(r, z, data, oracle, cfg.seconds, nil)
		if err != nil {
			return err
		}
		rosterEndToEnd(r, z, members)
		return nil
	}
	base, err := rosterPhase(r, z, data, oracle, cfg.seconds/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	members, err := rosterPhase(r, z, data, oracle, cfg.seconds/2, tr)
	if err != nil {
		return err
	}
	rosterLayers(r, z, members, tr)
	r.layer("trace.overhead_frac", "ratio", 1-rosterRate(z, members)/rosterRate(z, base))
	return cfg.writeSpans(tr)
}

// rosterPhase runs whole rounds over the roster until seconds have
// passed (at least one), and returns each member's samples; the last
// entry is DCS+Post.
func rosterPhase(r *run, z rosterSizes, data []uint64, oracle *exact.Oracle, seconds float64, tr *tracer) ([]memberSamples, error) {
	fs := faultio.NewMemFS()
	ck, err := sq.OpenCheckpointDir(ckptDir, checkpoint.WithFS(fs), checkpoint.WithKeep(1))
	if err != nil {
		return nil, err
	}
	l := tr.lane()
	members := make([]memberSamples, len(roster)+1)
	rt0 := readRuntime()
	start := now()
	for round := 0; round == 0 || now()-start < int64(seconds*1e9); round++ {
		for i, m := range roster {
			rosterRound(r, z, data, oracle, m, &members[i], &members[len(roster)], round, ck, fs, l)
		}
	}
	if tr != nil {
		runtimeLayers(r, rt0, readRuntime())
	}
	return members, r.peakRSS()
}

// rosterRound streams data through a fresh instance of m, querying at
// every query point, then checkpoints and recovers it. The first round
// scores the final answers against the oracle; later rounds must repeat
// them exactly, as the run is deterministic.
func rosterRound(r *run, z rosterSizes, data []uint64, oracle *exact.Oracle, m rosterMember, s, ps *memberSamples,
	round int, ck *sq.Checkpointer, fs *faultio.MemFS, l *lane) {
	phis := probePhis()
	w, ingest, sk := m.build()
	s.callNs = append(s.callNs, nil)
	s.rebuildNs = append(s.rebuildNs, nil)
	if m.layer == postOf {
		ps.rebuildNs = append(ps.rebuildNs, nil)
	}
	var total int64
	var got, postGot []uint64
	var post *sq.Post
	for off := 0; off < z.n; off += z.batch {
		end := min(off+z.batch, z.n)
		t0 := now()
		ingest(data[off:end])
		t1 := now()
		r.ops(1)
		s.callNs.add(round, t1-t0)
		total += t1 - t0
		l.addIf(m.layer+".update", t0, t1)
		if end%z.queryEvery != 0 && end != z.n {
			continue
		}
		got = s.queryTwice(r, l, m.layer, round,
			func() []uint64 { return w.QuantileBatch(phis) },
			func() []uint64 { return w.QuantileBatch(phis) })
		if m.layer == postOf {
			postGot = ps.queryTwice(r, l, postLayer, round,
				func() []uint64 { post = sq.PostProcess(sk, 0); return post.QuantileBatch(phis) },
				func() []uint64 { return post.QuantileBatch(phis) })
		}
	}
	s.roundNs = append(s.roundNs, total)
	s.space = w.SpaceBytes()
	s.score(r, oracle, m.layer, m.eps, got, round)
	if post != nil {
		ps.space = post.SpaceBytes()
		ps.score(r, oracle, postLayer, postEps, postGot, round)
	}

	t0 := now()
	blob, err := w.Snapshot()
	t1 := now()
	if !r.op(err, "%s: snapshot", m.layer) {
		return
	}
	gen, err := ck.Save(m.layer, blob)
	t2 := now()
	if !r.op(err, "%s: save", m.layer) {
		return
	}
	s.saveNs = append(s.saveNs, t2-t0)
	l.addIf("checkpoint.write", t1, t2)
	fresh, _, _ := m.build()
	t3 := now()
	rep, err := sq.RecoverCheckpointFS(fs, ckptDir, fresh)
	t4 := now()
	if !r.op(err, "%s: recover", m.layer) {
		return
	}
	s.recoverNs = append(s.recoverNs, t4-t3)
	if l != nil {
		rid := l.add(0, "checkpoint.recover", t3, t4)
		for _, cand := range rep.Candidates {
			l.add(rid, "checkpoint.decode", t4-int64(cand.Decode), t4)
		}
	}
	r.check(rep.Loaded && rep.Generation == gen, "%s: recovered generation %d, want %d", m.layer, rep.Generation, gen)
	r.check(slices.Equal(fresh.QuantileBatch(phis), got), "%s: recovered summary answers differently", m.layer)
}

// queryTwice times a query that rebuilds whatever the summary caches
// and its immediate repeat, which should hit the cache, and checks that
// they agree.
func (s *memberSamples) queryTwice(r *run, l *lane, layer string, round int, rebuild, hit func() []uint64) []uint64 {
	t0 := now()
	a := rebuild()
	t1 := now()
	b := hit()
	t2 := now()
	s.rebuildNs.add(round, t1-t0)
	s.hitNs = append(s.hitNs, t2-t1)
	l.addIf(layer+".query_rebuild", t0, t1)
	l.addIf(layer+".query_hit", t1, t2)
	r.check(slices.Equal(a, b), "%s: repeated query answers differently", layer)
	return a
}

// score checks the final answers: in the first round each probe
// quantile's rank error against the exact one must be within εn (plus
// one rank for the rounding of ⌊φn⌋); later rounds must repeat the first
// round's answers.
func (s *memberSamples) score(r *run, oracle *exact.Oracle, layer string, eps float64, got []uint64, round int) {
	if round > 0 {
		r.check(slices.Equal(got, s.answers), "%s: round %d answers differ from round 0", layer, round)
		return
	}
	s.answers = got
	phis := probePhis()
	worst := 0.0
	for i, q := range got {
		e := oracle.QuantileError(q, phis[i]) / eps
		worst = max(worst, e)
		r.check(e <= 1+1/(eps*float64(oracle.N())), "%s: φ=%.4f answer %d has rank error %.3fεn", layer, phis[i], q, e)
	}
	s.errRatio = worst
}

// addIf records a root span when tracing.
func (l *lane) addIf(name string, start, end int64) {
	if l != nil {
		l.add(0, name, start, end)
	}
}

// rosterRate is the geometric mean over the ingesting members of
// elements per second, in Melem/s, from each member's median round.
func rosterRate(z rosterSizes, members []memberSamples) float64 {
	var rates []float64
	for _, s := range members[:len(roster)] {
		rates = append(rates, float64(z.n)/median(s.roundNs)*1e3)
	}
	return geomean(rates)
}

// The tails are per member the median over rounds of each round's
// percentile, so one disturbed round moves them less.
func rosterEndToEnd(r *run, z rosterSizes, members []memberSamples) {
	p99 := func(s []int64) float64 { return percentile(s, 0.99) }
	p90 := func(s []int64) float64 { return percentile(s, 0.9) }
	var callP99, qp50, qp90, save, recov, space []float64
	var calls, queries, rounds int
	for i, s := range members {
		if i < len(roster) {
			callP99 = append(callP99, us(s.callNs.medianOf(p99)))
			save = append(save, ms(median(s.saveNs)))
			recov = append(recov, ms(median(s.recoverNs)))
			calls += s.callNs.count()
			rounds += len(s.saveNs)
		}
		qp50 = append(qp50, us(median(s.rebuildNs.all())))
		qp90 = append(qp90, us(s.rebuildNs.medianOf(p90)))
		space = append(space, float64(s.space)/1024)
		queries += s.rebuildNs.count()
	}
	r.setSamples("ingest_melem_per_s", "Melem/s", rosterRate(z, members), len(members[0].roundNs))
	r.setSamples("ingest_p99_us", "us", geomean(callP99), calls)
	r.setSamples("query_p50_us", "us", geomean(qp50), queries)
	r.setSamples("query_p90_us", "us", geomean(qp90), queries)
	r.setSamples("checkpoint_save_ms", "ms", geomean(save), rounds)
	r.setSamples("recover_ms", "ms", geomean(recov), rounds)
	r.setSamples("space_kib", "KiB", geomean(space), len(space))
}

func rosterLayers(r *run, z rosterSizes, members []memberSamples, tr *tracer) {
	for i, s := range members {
		layer := postLayer
		if i < len(roster) {
			layer = roster[i].layer
			r.layer(layer+".update_ns_per_elem", "ns", median(s.roundNs)/float64(z.n))
		}
		r.layer(layer+".query_rebuild_us", "us", us(median(s.rebuildNs.all())))
		r.layer(layer+".query_hit_us", "us", us(median(s.hitNs)))
		r.layer(layer+".space_kib", "KiB", float64(s.space)/1024)
		r.layer(layer+".rank_err_ratio", "ratio", s.errRatio)
	}
	checkpointLayers(r, tr.aggregate())
}
