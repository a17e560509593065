package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sq "streamquantiles"
	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/faultio"
	"streamquantiles/internal/streamgen"
	"streamquantiles/internal/xhash"
)

// The live workloads run a sharded container the way a service would:
// nproc writer goroutines in a closed loop on their own writer handles,
// each yielding the processor between calls as a writer fed from a
// socket or channel would (busy writers on every core would otherwise
// hold the driver off until the scheduler preempts them, seconds late),
// a driver goroutine issuing queries on a fixed schedule (open loop),
// and an admin goroutine checkpointing on a slower fixed schedule and
// resharding twice mid-run (P→2P→P). Every element a writer sends comes
// from a pre-generated per-writer ring, so the multiset the container
// should hold is known exactly at the end of the run and at every save.

// container is the surface both sharded container kinds share.
type container interface {
	QuantileBatch(phis []float64) []uint64
	Rank(x uint64) int64
	RankBatch(xs []uint64) []int64
	Count() int64
	Invariants() error
	EpsBudget() float64
	Shards() int
	Components() int
	SpaceBytes() int64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	Reshard(p int) error
	SetDrainObserver(obs sq.DrainObserver)
	SetCheckpointObserver(obs sq.CheckpointObserver)
}

// liveKind is what differs between cash-live and turnstile-churn.
type liveKind struct {
	turnstile bool
	gen       func(seed uint64) streamgen.Generator
	fresh     func(p int) (container, error)
	summary   string // the per-shard summary, for the report
	label     string // the checkpoint label
}

var cashLive = liveKind{
	gen: func(seed uint64) streamgen.Generator { return streamgen.Uniform{Bits: 24, Seed: seed} },
	fresh: func(p int) (container, error) {
		c, err := sq.NewShardedCashRegister(p, func() sq.CashRegister { return sq.NewKLL(0.001, 7) })
		if err != nil {
			return nil, err
		}
		return c, nil
	},
	summary: "kll(eps=0.001)",
	label:   "sharded-kll",
}

var turnstileChurn = liveKind{
	turnstile: true,
	gen:       func(seed uint64) streamgen.Generator { return streamgen.Zipf{Bits: 24, S: 1.1, Seed: seed} },
	fresh: func(p int) (container, error) {
		c, err := sq.NewShardedTurnstile(p, func() sq.Turnstile { return sq.NewDCS(0.005, 24, sq.DyadicConfig{Seed: 7}) })
		if err != nil {
			return nil, err
		}
		return c, nil
	},
	summary: "dcs(eps=0.005,u=2^24)",
	label:   "sharded-dcs",
}

// liveSizes are the workload's fixed dimensions.
type liveSizes struct {
	ring      int   // elements per writer ring
	batch     int   // elements per handle call
	warm      int   // elements per writer fed during set-up (turnstile: the live window)
	tick      int64 // ns between quantile queries; rank queries fall halfway
	ckptEvery int64 // ns between checkpoint saves
	window    int64 // ns per measurement window; rates and tails are medians over windows
	setups    int   // set-up repetitions; setup_s is their median
}

func liveSizesFor(k liveKind, small bool) liveSizes {
	z := liveSizes{
		ring:      1 << 20,
		batch:     256,
		warm:      1 << 16,
		tick:      int64(20 * time.Millisecond),
		ckptEvery: int64(200 * time.Millisecond),
		window:    int64(3 * time.Second),
		setups:    9,
	}
	if k.turnstile {
		z.warm = 1 << 17
		z.setups = 5
	}
	if small {
		z.ring, z.warm, z.setups = 1<<14, 1<<12, 2
		z.tick, z.ckptEvery, z.window = int64(2*time.Millisecond), int64(50*time.Millisecond), int64(100*time.Millisecond)
	}
	return z
}

// writerState is one writer goroutine's position in its ring and what
// it has told the container so far. The driver and admin goroutines read
// the atomics to bracket what the container holds (see bracket):
// "admitted" counts elements handed to the handle (stored before the
// call), "flushed" a lower bound on those that reached the container
// (stored after it, net of the handle's buffer).
type writerState struct {
	ring     []uint64
	ins, del int64 // ring positions inserted and deleted, all time

	insAdmitted, insFlushed atomic.Int64
	delAdmitted, delFlushed atomic.Int64

	lat windowed // every handle call, ns

	// Traced phase only: calls that only buffered are counted, not spanned.
	lane    *lane
	bufBusy int64

	_ [64]byte // keep neighbouring writers' atomics off this cache line
}

// liveState is one set-up container with its writers and checkpoint
// directory.
type liveState struct {
	c       container
	p       int
	fs      *faultio.MemFS
	ck      *sq.Checkpointer
	writers []*writerState
	cash    []*sq.CashWriter
	turn    []*sq.TurnWriter
}

const ckptDir = "/ckpt"

// setupLive builds the container, acquires one handle per writer, feeds
// each writer's warm-up (turnstile: its whole live window) through its
// handle, flushes, and answers one query of each kind.
func setupLive(k liveKind, z liveSizes, rings [][]uint64) (*liveState, error) {
	p := len(rings)
	c, err := k.fresh(p)
	if err != nil {
		return nil, err
	}
	fs := faultio.NewMemFS()
	ck, err := sq.OpenCheckpointDir(ckptDir, checkpoint.WithFS(fs), checkpoint.WithKeep(2))
	if err != nil {
		return nil, err
	}
	st := &liveState{c: c, p: p, fs: fs, ck: ck}
	for _, ring := range rings {
		ws := &writerState{ring: ring}
		st.writers = append(st.writers, ws)
		if k.turnstile {
			h := c.(*sq.ShardedTurnstile).AcquireWriter()
			st.turn = append(st.turn, h)
			for off := 0; off < z.warm; off += z.batch {
				h.InsertBatch(ring[off : off+z.batch])
			}
			h.Flush()
		} else {
			h := c.(*sq.ShardedCashRegister).AcquireWriter()
			st.cash = append(st.cash, h)
			for off := 0; off < z.warm; off += z.batch {
				h.UpdateBatch(ring[off : off+z.batch])
			}
			h.Flush()
		}
		ws.ins = int64(z.warm)
		ws.insAdmitted.Store(ws.ins)
		ws.insFlushed.Store(ws.ins)
	}
	c.QuantileBatch(probePhis())
	c.Rank(rings[0][0])
	return st, nil
}

// windowed holds samples by the measurement window they fell in.
type windowed [][]int64

func (w windowed) add(win int, v int64) { w[win] = append(w[win], v) }

// count returns the number of samples in every window.
func (w windowed) count() int {
	n := 0
	for _, s := range w {
		n += len(s)
	}
	return n
}

// all returns every sample, of every window.
func (w windowed) all() []int64 {
	var out []int64
	for _, s := range w {
		out = append(out, s...)
	}
	return out
}

// medianOf returns the median over windows of f applied to each
// window's samples, skipping empty windows.
func (w windowed) medianOf(f func([]int64) float64) float64 {
	var vs []int64
	for _, s := range w {
		if len(s) > 0 {
			vs = append(vs, int64(f(s)))
		}
	}
	return median(vs)
}

// clock places a timestamp in its measurement window.
type clock struct {
	start, window int64
	windows       int
}

func (c clock) win(t int64) int { return min(c.windows-1, max(0, int((t-c.start)/c.window))) }

// liveResult is what one measured phase produced.
type liveResult struct {
	rates     []int64  // elements per second admitted in each window
	callNs    windowed // every handle call
	queryNs   []int64  // every QuantileBatch, from its due time
	rankNs    []int64  // every Rank, from its due time
	lateNs    []int64  // how late each query started
	serveNs   []int64  // every query, from its actual start
	saveNs    []int64
	recoverNs []int64
	blobBytes []int64
	space     []int64 // SpaceBytes at each save
	ranks     []sampledRank
	errRatio  float64
	bufBusy   int64 // traced phase: time in handle calls that only buffered
}

// runLive is the cash-live and turnstile-churn workload.
func runLive(r *run, cfg config, k liveKind) error {
	nproc := runtime.GOMAXPROCS(0)
	z := liveSizesFor(k, cfg.small)
	rings := make([][]uint64, nproc)
	for w := range rings {
		g := k.gen(cfg.seed*1000 + uint64(w))
		rings[w] = streamgen.Generate(g, z.ring)
		if w == 0 {
			r.inputs = append(r.inputs, fmt.Sprintf("%s per writer, %d writers, ring %d, batch %d, summary %s, P=%d",
				g.Name(), nproc, z.ring, z.batch, k.summary, nproc))
		}
	}
	// Rank probes are uniform over the universe, not drawn from the data:
	// a probe inside a run of duplicates has a wide exact rank interval
	// that hides the sketch's error, and Zipf data is mostly such runs.
	probes := make([]uint64, 1000)
	rng := xhash.NewSplitMix64(cfg.seed)
	bits := k.gen(cfg.seed).UniverseBits()
	for i := range probes {
		probes[i] = rng.Uint64n(1 << bits)
	}
	orc := &liveOracle{}
	for _, ring := range rings {
		orc.writers = append(orc.writers, newStreamRanks(ring))
	}

	phase := func(seconds float64, tr *tracer) (*liveResult, error) {
		var st *liveState
		var setupNs []int64
		for i := 0; i < z.setups; i++ {
			t0 := now()
			s, err := setupLive(k, z, rings)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setupNs = append(setupNs, now()-t0)
			st = s
		}
		r.setSamples("setup_s", "s", median(setupNs)/1e9, len(setupNs))
		return measureLive(r, k, z, st, orc, probes, seconds, tr)
	}

	if !cfg.trace {
		res, err := phase(cfg.seconds, nil)
		if err != nil {
			return err
		}
		liveEndToEnd(r, z, res)
		return nil
	}
	base, err := phase(cfg.seconds/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	res, err := phase(cfg.seconds/2, tr)
	if err != nil {
		return err
	}
	liveLayers(r, res, tr)
	r.layer("trace.overhead_frac", "ratio", 1-rate(res)/rate(base))
	return cfg.writeSpans(tr)
}

// rate is the median over windows of the ingest rate, in Melem/s.
func rate(res *liveResult) float64 { return median(res.rates) / 1e6 }

// measureLive runs the writers, the driver and the admin goroutine for
// the given seconds, then verifies the container against the exact
// multiset its writers sent.
func measureLive(r *run, k liveKind, z liveSizes, st *liveState, orc *liveOracle, probes []uint64, seconds float64, tr *tracer) (*liveResult, error) {
	c := st.c
	if tr != nil {
		c.SetDrainObserver(tr.observer("sharded.elastic.drain"))
		c.SetCheckpointObserver(tr.observer("sharded.codec.marshal_shard"))
	}
	start := now()
	deadline := start + int64(seconds*1e9)
	clk := clock{start: start, window: z.window, windows: int((deadline - start + z.window - 1) / z.window)}
	res := &liveResult{callNs: make(windowed, clk.windows)}
	admitted := func() int64 {
		var n int64
		for _, ws := range st.writers {
			n += ws.insAdmitted.Load() + ws.delAdmitted.Load()
		}
		return n
	}
	startElems := admitted()
	for _, ws := range st.writers {
		ws.lat = make(windowed, clk.windows)
		ws.lane = tr.lane()
	}
	rt0 := readRuntime()
	var stop atomic.Bool
	var wg, writersWG sync.WaitGroup
	for w, ws := range st.writers {
		writersWG.Add(1)
		go func(w int, ws *writerState) {
			defer writersWG.Done()
			if k.turnstile {
				turnLoop(ws, st.turn[w], z, clk, &stop)
			} else {
				cashLoop(ws, st.cash[w], z, clk, &stop)
			}
		}(w, ws)
	}
	var driverLane, adminLane *lane = tr.lane(), tr.lane()
	wg.Add(2)
	go func() {
		defer wg.Done()
		drive(r, st, z, probes, clk, deadline, res, driverLane)
	}()
	go func() {
		defer wg.Done()
		administer(r, k, st, z, start, deadline, res, tr, adminLane)
	}()
	last, lastAt := startElems, start
	for i := 1; i <= clk.windows; i++ {
		at := min(deadline, start+int64(i)*z.window)
		time.Sleep(time.Duration(at - now()))
		n, t := admitted(), now()
		res.rates = append(res.rates, int64(float64(n-last)/float64(t-lastAt)*1e9))
		last, lastAt = n, t
	}
	stop.Store(true)
	writersWG.Wait()
	wg.Wait()
	rt1 := readRuntime()
	if err := r.peakRSS(); err != nil {
		return nil, err
	}
	if tr != nil {
		c.SetDrainObserver(nil)
		c.SetCheckpointObserver(nil)
		runtimeLayers(r, rt0, rt1)
	}

	for _, ws := range st.writers {
		for i, s := range ws.lat {
			res.callNs[i] = append(res.callNs[i], s...)
			r.ops(int64(len(s)))
		}
		res.bufBusy += ws.bufBusy
	}
	verifyLive(r, st, orc, probes, res)
	return res, nil
}

// cashLoop is one cash-register writer: UpdateBatch calls of z.batch
// elements on its own handle until stopped, then Close.
func cashLoop(ws *writerState, h *sq.CashWriter, z liveSizes, clk clock, stop *atomic.Bool) {
	n := int64(len(ws.ring))
	b := int64(z.batch)
	for !stop.Load() {
		off := ws.ins % n
		ws.insAdmitted.Store(ws.ins + b)
		before := h.Buffered()
		t0 := now()
		h.UpdateBatch(ws.ring[off : off+b])
		t1 := now()
		ws.lat.add(clk.win(t0), t1-t0)
		ws.ins += b
		after := h.Buffered()
		ws.delivered(after)
		ws.traceCall(before, after, z.batch, t0, t1)
		runtime.Gosched()
	}
	h.Close()
	ws.insFlushed.Store(ws.ins)
}

// turnLoop is one turnstile writer: it inserts the next batch of its
// ring and, once its live window is full, deletes its own oldest batch,
// so the live multiset is always ring positions [del, ins).
func turnLoop(ws *writerState, h *sq.TurnWriter, z liveSizes, clk clock, stop *atomic.Bool) {
	n := int64(len(ws.ring))
	b := int64(z.batch)
	window := int64(z.warm)
	for !stop.Load() {
		off := ws.ins % n
		ws.insAdmitted.Store(ws.ins + b)
		before := h.Buffered()
		t0 := now()
		h.InsertBatch(ws.ring[off : off+b])
		t1 := now()
		ws.lat.add(clk.win(t0), t1-t0)
		ws.ins += b
		after := h.Buffered()
		ws.delivered(after)
		ws.traceCall(before, after, z.batch, t0, t1)
		if ws.ins-ws.del <= window {
			continue
		}
		off = ws.del % n
		ws.delAdmitted.Store(ws.del + b)
		before = h.Buffered()
		t0 = now()
		h.DeleteBatch(ws.ring[off : off+b])
		t1 = now()
		ws.lat.add(clk.win(t0), t1-t0)
		ws.del += b
		after = h.Buffered()
		ws.delivered(after)
		ws.traceCall(before, after, z.batch, t0, t1)
		runtime.Gosched()
	}
	h.Close()
	ws.insFlushed.Store(ws.ins)
	ws.delFlushed.Store(ws.del)
}

// delivered publishes lower bounds on the insertions and deletions
// that have reached the container, given how many operations the handle
// still buffers (of either kind).
func (ws *writerState) delivered(buffered int) {
	ws.insFlushed.Store(max(0, ws.ins-int64(buffered)))
	ws.delFlushed.Store(max(0, ws.del-int64(buffered)))
}

// traceCall attributes one handle call: a call during which the
// handle's buffer did not simply grow by the batch delivered to the
// container (deliver, shard lock, summary batch) and becomes a span;
// one that only buffered is counted.
func (ws *writerState) traceCall(before, after, batch int, t0, t1 int64) {
	if ws.lane == nil {
		return
	}
	if after < before+batch {
		ws.lane.add(0, "sharded.writer.flush", t0, t1)
		return
	}
	ws.bufBusy += t1 - t0
}

// drive issues the open-loop queries: a QuantileBatch over the probe
// grid every z.tick and a Rank halfway between, each timed from the
// moment it was due, so a stalled query also delays the ones behind it.
//
// Every rank query is kept with the bracket of what the container held
// meanwhile, and scored after the run.
func drive(r *run, st *liveState, z liveSizes, probes []uint64, clk clock, deadline int64, res *liveResult, l *lane) {
	c := st.c
	phis := probePhis()
	half := z.tick / 2
	for i := int64(1); ; i++ {
		due := clk.start + i*half
		if due >= deadline {
			return
		}
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		var t0, t1 int64
		if i%2 == 1 {
			t0 = now()
			c.QuantileBatch(phis)
			t1 = now()
			res.queryNs = append(res.queryNs, t1-due)
		} else {
			x := probes[(i/2)%int64(len(probes))]
			b := st.open()
			t0 = now()
			est := c.Rank(x)
			t1 = now()
			st.close(&b)
			res.ranks = append(res.ranks, sampledRank{b, x, est})
			res.rankNs = append(res.rankNs, t1-due)
		}
		r.ops(1)
		res.lateNs = append(res.lateNs, t0-due)
		res.serveNs = append(res.serveNs, t1-t0)
		if l != nil {
			l.add(0, "sharded.query", t0, t1)
		}
	}
}

// administer saves a checkpoint every z.ckptEvery and recovers it into
// a fresh container, and reshards to 2P at a third of the run and back
// to P at two thirds.
func administer(r *run, k liveKind, st *liveState, z liveSizes, start, deadline int64, res *liveResult, tr *tracer, l *lane) {
	span := (deadline - start) / 3
	reshards := []struct {
		at int64
		p  int
	}{{start + span, 2 * st.p}, {start + 2*span, st.p}}
	nextSave := start + z.ckptEvery
	for {
		at := nextSave
		if len(reshards) > 0 && reshards[0].at < at {
			at = reshards[0].at
		}
		if at >= deadline {
			return
		}
		if d := at - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if len(reshards) > 0 && reshards[0].at == at {
			p := reshards[0].p
			reshards = reshards[1:]
			id := l.reserveFor(tr)
			t0 := now()
			err := st.c.Reshard(p)
			t1 := now()
			l.putIf(id, "sharded.elastic.reshard", t0, t1)
			r.op(err, "reshard to P=%d", p)
			continue
		}
		nextSave += z.ckptEvery
		saveAndRecover(r, k, st, res, tr, l)
	}
}

// saveAndRecover checkpoints the live container (MarshalBinary plus
// Checkpointer.Save) and recovers the new generation into a fresh
// container, checking that it decodes, passes its invariants, and holds
// a count between what had surely reached the container before the save
// and what could have reached it by the end.
func saveAndRecover(r *run, k liveKind, st *liveState, res *liveResult, tr *tracer, l *lane) {
	b := st.open()
	id := l.reserveFor(tr)
	t0 := now()
	blob, err := st.c.MarshalBinary()
	t1 := now()
	l.putIf(id, "sharded.codec.marshal", t0, t1)
	if !r.op(err, "marshal") {
		return
	}
	gen, err := st.ck.Save(k.label, blob)
	t2 := now()
	if l != nil {
		l.add(0, "checkpoint.write", t1, t2)
	}
	if !r.op(err, "save") {
		return
	}
	st.close(&b)
	res.saveNs = append(res.saveNs, t2-t0)
	res.blobBytes = append(res.blobBytes, int64(len(blob)))
	res.space = append(res.space, st.c.SpaceBytes())

	fresh, err := k.fresh(st.p)
	if !r.op(err, "fresh container") {
		return
	}
	t3 := now()
	rep, err := sq.RecoverCheckpointFS(st.fs, ckptDir, fresh)
	t4 := now()
	if !r.op(err, "recover") {
		return
	}
	res.recoverNs = append(res.recoverNs, t4-t3)
	if l != nil {
		rid := l.add(0, "checkpoint.recover", t3, t4)
		for _, cand := range rep.Candidates {
			// The decode is the last step before recovery returns; the
			// report carries only its duration.
			l.add(rid, "checkpoint.decode", t4-int64(cand.Decode), t4)
		}
	}
	r.check(rep.Loaded && rep.Generation == gen, "recovered generation %d, want %d", rep.Generation, gen)
	ierr := fresh.Invariants()
	r.check(ierr == nil, "recovered generation %d fails invariants: %v", gen, ierr)
	lo, hi := b.count()
	got := fresh.Count()
	r.check(got >= lo && got <= hi, "recovered generation %d holds %d elements, want within [%d, %d]", gen, got, lo, hi)
}

// reserveFor reserves a span ID on l and makes it the parent of the
// observer spans recorded until the next reservation; 0 when untraced.
func (l *lane) reserveFor(tr *tracer) uint64 {
	if l == nil {
		return 0
	}
	id := l.reserve()
	tr.parent.Store(id)
	return id
}

// putIf records a span under a reserved ID when tracing.
func (l *lane) putIf(id uint64, name string, start, end int64) {
	if l != nil {
		l.put(id, 0, name, start, end)
	}
}

// open starts a bracket: what the writers have surely delivered.
func (st *liveState) open() bracket {
	p := len(st.writers)
	b := bracket{make([]int64, p), make([]int64, p), make([]int64, p), make([]int64, p)}
	for w, ws := range st.writers {
		b.insLo[w] = ws.insFlushed.Load()
		b.delLo[w] = ws.delFlushed.Load()
	}
	return b
}

// close ends a bracket: what the writers can have delivered by now.
func (st *liveState) close(b *bracket) {
	for w, ws := range st.writers {
		b.insHi[w] = ws.insAdmitted.Load()
		b.delHi[w] = ws.delAdmitted.Load()
	}
}

// sampledRank is one open-loop rank query kept for scoring.
type sampledRank struct {
	b   bracket
	x   uint64
	est int64
}

// verifyLive checks the quiesced container against the exact multiset:
// its count, its invariants, and the rank error of every quantile of a
// 1000-point grid and of every probe rank within
// 2·EpsBudget()·n + Shards() + Components(). It then scores every
// open-loop rank query: the error ratio is their mean rank error over
// EpsBudget()·n. Averaged over a run's worth of queries it repeats
// across runs, where one final answer set would not: the sketch's error
// moves with the concurrent arrival order.
func verifyLive(r *run, st *liveState, orc *liveOracle, probes []uint64, res *liveResult) {
	c := st.c
	b := st.open()
	st.close(&b)
	want, _ := b.count()
	got := c.Count()
	r.check(got == want, "count %d, want %d flushed", got, want)
	err := c.Invariants()
	r.check(err == nil, "invariants: %v", err)

	eps := c.EpsBudget()
	bound := 2*eps*float64(want) + float64(c.Shards()+c.Components())
	phis := gridPhis(1000)
	for i, q := range c.QuantileBatch(phis) {
		e := orc.quantileErr(b, q, phis[i])
		r.check(float64(e) <= bound, "quantile φ=%.4f: rank error %d exceeds bound %.0f", phis[i], e, bound)
	}
	for i, est := range c.RankBatch(probes) {
		e := orc.rankErr(b, probes[i], est)
		r.check(float64(e) <= bound, "rank(%d) = %d: error %d exceeds bound %.0f", probes[i], est, e, bound)
	}

	var ratios []float64
	for _, q := range res.ranks {
		lo, hi := q.b.count()
		ratios = append(ratios, float64(orc.rankErr(q.b, q.x, q.est))/(eps*float64(lo+hi)/2))
	}
	res.errRatio = mean(ratios)
}

// liveEndToEnd records the end-to-end metrics of an untraced phase.
// The ingest rate and tail are medians over the run's windows, so one
// disturbed window (a noisy neighbour, a reshard) moves them less. The
// query latencies are those of the QuantileBatch queries: mixed with the
// far cheaper Rank queries their distribution would be bimodal, with a
// median that jumps between the modes from run to run.
func liveEndToEnd(r *run, z liveSizes, res *liveResult) {
	p99 := func(s []int64) float64 { return percentile(s, 0.99) }
	r.setSamples("ingest_melem_per_s", "Melem/s", rate(res), len(res.rates))
	r.setSamples("ingest_p99_us", "us", us(res.callNs.medianOf(p99)), res.callNs.count())
	r.setSamples("query_p50_us", "us", us(median(res.queryNs)), len(res.queryNs))
	r.setSamples("query_p90_us", "us", us(percentile(res.queryNs, 0.9)), len(res.queryNs))
	r.setSamples("checkpoint_save_ms", "ms", ms(median(res.saveNs)), len(res.saveNs))
	r.setSamples("recover_ms", "ms", ms(median(res.recoverNs)), len(res.recoverNs))
	r.setSamples("space_kib", "KiB", median(res.space)/1024, len(res.space))
	r.note("%d windows of %v; QuantileBatch p99 %.1f us; Rank p50 %.1f us, p99 %.1f us",
		len(res.rates), time.Duration(z.window), us(p99(res.queryNs)), us(median(res.rankNs)), us(p99(res.rankNs)))
	late := percentile(res.lateNs, 0.99)
	r.note("driver: %d queries, start late p99 %.3f ms, service p50 %.3f ms p99 %.3f ms",
		len(res.lateNs), ms(late), ms(median(res.serveNs)), ms(p99(res.serveNs)))
	if late > float64(z.tick) {
		r.note("DRIVER BEHIND: queries started %.1f ms late at p99, more than one tick (%v); the open-loop latencies include that backlog",
			ms(late), time.Duration(z.tick))
	}
}

// liveLayers records the per-layer metrics of a traced phase.
func liveLayers(r *run, res *liveResult, tr *tracer) {
	lt := tr.aggregate()
	get := lt.get
	flush := get("sharded.writer.flush")
	r.layer("sharded.writer.calls", "count", float64(res.callNs.count()))
	r.layer("sharded.writer.buffer_busy_s", "s", float64(res.bufBusy)/1e9)
	r.layer("sharded.writer.flush_busy_s", "s", float64(flush.busy)/1e9)
	r.layer("sharded.writer.flush_p99_us", "us", us(percentile(flush.durs, 0.99)))
	q := get("sharded.query")
	r.layer("sharded.query.calls", "count", float64(len(q.durs)))
	r.layer("sharded.query.busy_s", "s", float64(q.busy)/1e9)
	r.layer("sharded.query.p99_us", "us", us(percentile(q.durs, 0.99)))
	r.layer("sharded.query.rank_err_ratio", "ratio", res.errRatio)
	rs := get("sharded.elastic.reshard")
	r.layer("sharded.elastic.reshard_ms", "ms", ms(median(rs.durs)))
	r.layer("sharded.elastic.reshard_self_ms", "ms", ms(median(rs.selfs)))
	dr := get("sharded.elastic.drain")
	r.layer("sharded.elastic.drains", "count", float64(len(dr.durs)))
	r.layer("sharded.elastic.drain_max_ms", "ms", ms(percentile(dr.durs, 1)))
	mar := get("sharded.codec.marshal")
	r.layer("sharded.codec.marshal_ms", "ms", ms(median(mar.durs)))
	r.layer("sharded.codec.marshal_self_ms", "ms", ms(median(mar.selfs)))
	r.layer("sharded.codec.marshal_shard_max_ms", "ms", ms(percentile(get("sharded.codec.marshal_shard").durs, 1)))
	r.layer("sharded.codec.blob_kib", "KiB", median(res.blobBytes)/1024)
	checkpointLayers(r, lt)
	r.layer("driver.late_p99_ms", "ms", ms(percentile(res.lateNs, 0.99)))
	r.layer("driver.ticks", "count", float64(len(res.lateNs)))
}

// checkpointLayers records the checkpoint.* per-layer metrics.
func checkpointLayers(r *run, lt layerMap) {
	r.layer("checkpoint.write_ms", "ms", ms(median(lt.get("checkpoint.write").durs)))
	r.layer("checkpoint.decode_ms", "ms", ms(median(lt.get("checkpoint.decode").durs)))
	r.layer("checkpoint.read_verify_ms", "ms", ms(median(lt.get("checkpoint.recover").selfs)))
}
