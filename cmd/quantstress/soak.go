package main

import (
	"encoding"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sq "streamquantiles"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/faultio"
	"streamquantiles/internal/retry"
	"streamquantiles/internal/streamgen"
)

// container is the summary surface the soak verifies — both sharded
// families satisfy it.
type container interface {
	Count() int64
	Quantile(phi float64) uint64
	QuantileBatch(phis []float64) []uint64
	Rank(x uint64) int64
	RankBatch(xs []uint64) []int64
	Invariants() error
	Shards() int
	Generation() uint64
	Components() int
	EpsBudget() float64
	MarshalBinary() ([]byte, error)
}

// probePhis is the quantile grid every verification barrier checks,
// extremes included — the tails are where elasticity bugs hide.
var probePhis = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// harness owns one soak run. Writers take gate.RLock per batch and
// publish their progress before releasing it; a verification barrier
// takes gate.Lock, so the per-writer high-water marks it reads describe
// exactly the elements the container has absorbed — the ground truth
// for the oracle. Readers never take the gate: queries are part of the
// load the barrier runs under.
type harness struct {
	cfg *config
	out io.Writer

	cash *sq.ShardedCashRegister
	turn *sq.ShardedTurnstile

	gate     sync.RWMutex
	streams  [][]uint64
	inserted []atomic.Int64
	deleted  []atomic.Int64
	opsDone  atomic.Int64
	// wake nudges the coordinator after every published batch so
	// milestones fire promptly instead of on a polling cadence.
	wake chan struct{}

	// baseCount is the recovered element count of a -resume run; the
	// pre-crash stream is unknown to this process, so oracle checks are
	// replaced by self-consistency checks when it is nonzero.
	baseCount int64
	resumed   bool

	ingestLat *latSketch
	queryLat  *latSketch
	// drainLat records every per-shard drain duration during a
	// reshard/retarget, via the container's DrainObserver hook — a
	// writer blocked on a retiring shard stalls for at most one of
	// these, so the max is the ingestion-stall bound the soak asserts.
	drainLat *latSketch
	// ckptLat records every per-shard marshal duration during a
	// checkpoint save, via the container's CheckpointObserver hook — a
	// writer routed to a shard being marshalled stalls for at most one
	// of these ("stop the shard, not the world"), so the max is the
	// checkpoint-stall bound the soak asserts with -slo-checkpoint-max.
	ckptLat *latSketch
	queries atomic.Int64

	mu         sync.Mutex
	violations []string // guarded by mu

	ck *ckptDriver

	reshards  int
	retargets int
	verifies  int
}

func (h *harness) c() container {
	if h.cash != nil {
		return h.cash
	}
	return h.turn
}

func (h *harness) fail(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (h *harness) logf(format string, args ...any) {
	if h.cfg.verbose {
		fmt.Fprintf(h.out, "quantstress: "+format+"\n", args...)
	}
}

func (h *harness) sayf(format string, args ...any) {
	fmt.Fprintf(h.out, "quantstress: "+format+"\n", args...)
}

// latSketch dogfoods a KLL sketch as the latency recorder: observed
// durations in nanoseconds are a stream, and p50/p99 are quantile
// queries against the library itself.
type latSketch struct {
	mu  sync.Mutex
	s   *sq.KLL // guarded by mu
	n   int64   // guarded by mu
	max int64   // guarded by mu
}

func newLatSketch(seed uint64) *latSketch {
	return &latSketch{s: sq.NewKLL(0.01, seed)}
}

func (l *latSketch) observe(d time.Duration) {
	l.mu.Lock()
	l.s.Update(uint64(d))
	l.n++
	if int64(d) > l.max {
		l.max = int64(d)
	}
	l.mu.Unlock()
}

func (l *latSketch) report() (n int64, p50, p99, max time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0, 0, 0, 0
	}
	return l.n, time.Duration(l.s.Quantile(0.50)), time.Duration(l.s.Quantile(0.99)), time.Duration(l.max)
}

// cashWriter streams its slice in, batch by batch, through its own
// per-goroutine writer handle under the read side of the pause gate.
// The handle must be flushed before the high-water mark is published:
// the verification barrier's oracle counts every element up to the
// mark, so none may still sit in the writer-local buffer.
func (h *harness) cashWriter(w int) {
	stream := h.streams[w]
	hw := h.cash.AcquireWriter()
	defer hw.Close()
	for i := 0; i < len(stream); i += h.cfg.batch {
		end := i + h.cfg.batch
		if end > len(stream) {
			end = len(stream)
		}
		h.gate.RLock()
		t0 := time.Now()
		hw.UpdateBatch(stream[i:end])
		hw.Flush()
		h.ingestLat.observe(time.Since(t0))
		h.inserted[w].Store(int64(end))
		h.opsDone.Add(int64(end - i))
		h.gate.RUnlock()
		h.nudge()
	}
}

// turnWriter additionally deletes the stream prefix once its lead over
// the deletions exceeds four batches, so the live multiset at any
// barrier is exactly streams[w][deleted:inserted] — deterministic
// ground truth under the turnstile model.
func (h *harness) turnWriter(w int) {
	stream := h.streams[w]
	hw := h.turn.AcquireWriter()
	defer hw.Close()
	del := 0
	for i := 0; i < len(stream); i += h.cfg.batch {
		end := i + h.cfg.batch
		if end > len(stream) {
			end = len(stream)
		}
		h.gate.RLock()
		t0 := time.Now()
		hw.InsertBatch(stream[i:end])
		hw.Flush()
		h.ingestLat.observe(time.Since(t0))
		h.inserted[w].Store(int64(end))
		if end-del >= 4*h.cfg.batch {
			t0 = time.Now()
			hw.DeleteBatch(stream[del : del+h.cfg.batch])
			hw.Flush()
			h.ingestLat.observe(time.Since(t0))
			del += h.cfg.batch
			h.deleted[w].Store(int64(del))
		}
		h.opsDone.Add(int64(end - i))
		h.gate.RUnlock()
		h.nudge()
	}
}

// nudge wakes the coordinator without ever blocking the writer.
func (h *harness) nudge() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// reader hammers the query surface until stopped; answers are judged at
// the barriers, here we only demand the calls return and record how
// fast they do.
func (h *harness) reader(r int, stop <-chan struct{}) {
	c := h.c()
	i := r
	for {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		if c.Count() > 0 {
			switch i % 4 {
			case 0:
				c.Quantile(probePhis[i%len(probePhis)])
			case 1:
				c.Rank(uint64(i * 2654435761))
			case 2:
				c.QuantileBatch(probePhis)
			default:
				c.RankBatch([]uint64{uint64(i), uint64(i * 31)})
			}
		}
		h.queryLat.observe(time.Since(t0))
		h.queries.Add(1)
		i++
	}
}

// groundTruth snapshots the live multiset from the quiesced per-writer
// high-water marks. Callers must hold gate.Lock.
func (h *harness) groundTruth() []uint64 {
	var total int64
	for w := range h.streams {
		total += h.inserted[w].Load() - h.deleted[w].Load()
	}
	live := make([]uint64, 0, total)
	for w := range h.streams {
		ins, del := h.inserted[w].Load(), h.deleted[w].Load()
		live = append(live, h.streams[w][del:ins]...)
	}
	return live
}

// verifyBarrier pauses ingestion and checks everything the library
// promises: structural invariants, count conservation, and — against an
// exact oracle over the ingested prefix — the composed rank-error bound
// 2·EpsBudget·n + Shards + Components for every probe quantile and
// rank. A -resume run has no oracle for the recovered prefix, so it
// checks self-consistency instead: conservation over baseCount and
// monotone quantiles.
func (h *harness) verifyBarrier(stage string) {
	h.gate.Lock()
	defer h.gate.Unlock()
	h.verifies++
	c := h.c()
	if err := c.Invariants(); err != nil {
		h.fail("%s: invariants: %v", stage, err)
	}
	live := h.groundTruth()
	n := h.baseCount + int64(len(live))
	if got := c.Count(); got != n {
		h.fail("%s: count %d, want %d (base %d + live %d)", stage, got, n, h.baseCount, len(live))
		return
	}
	if n == 0 {
		return
	}
	tol := int64(2*c.EpsBudget()*float64(n)) + int64(c.Shards()) + int64(c.Components())
	answers := c.QuantileBatch(probePhis)
	if h.resumed {
		for i := 1; i < len(answers); i++ {
			if answers[i] < answers[i-1] {
				h.fail("%s: quantiles not monotone: phi %.2f -> %d but phi %.2f -> %d",
					stage, probePhis[i-1], answers[i-1], probePhis[i], answers[i])
			}
		}
		h.logf("verify[%s]: n=%d self-consistent (resumed: no oracle)", stage, n)
		return
	}
	oracle := exact.New(live)
	var worst int64
	for i, phi := range probePhis {
		got := answers[i]
		if one := c.Quantile(phi); one != got {
			h.fail("%s: QuantileBatch(%.2f)=%d disagrees with Quantile=%d", stage, phi, got, one)
		}
		target := core.TargetRank(phi, n)
		lo, hi := oracle.RankInterval(got)
		var dist int64
		switch {
		case hi < target-tol:
			dist = (target - tol) - hi
		case lo > target+tol:
			dist = lo - (target + tol)
		}
		if dist > 0 {
			h.fail("%s: quantile phi=%.2f -> %d has rank [%d,%d], target %d exceeds tolerance %d by %d (n=%d eps=%.3f shards=%d comps=%d)",
				stage, phi, got, lo, hi, target, tol, dist, n, c.EpsBudget(), c.Shards(), c.Components())
		}
		if d := absDelta(target, lo, hi); d > worst {
			worst = d
		}
	}
	for _, phi := range []float64{0.02, 0.25, 0.5, 0.75, 0.98} {
		x := oracle.Quantile(phi)
		lo, hi := oracle.RankInterval(x)
		if got := c.Rank(x); got < lo-tol || got > hi+tol {
			h.fail("%s: rank(%d)=%d outside exact [%d,%d] ± %d", stage, x, got, lo, hi, tol)
		}
	}
	h.logf("verify[%s]: n=%d worst quantile rank error %d (tolerance %d)", stage, n, worst, tol)
}

// absDelta is the distance from target to the interval [lo, hi].
func absDelta(target, lo, hi int64) int64 {
	switch {
	case target < lo:
		return lo - target
	case target > hi:
		return target - hi
	}
	return 0
}

// event is one scheduled elastic operation, fired when opsDone crosses at.
type event struct {
	at   int64
	name string
	run  func()
}

// buildEvents spaces the reshard plan evenly across the run and slots
// the re-ε rebuild at the 60% mark.
func (h *harness) buildEvents() []event {
	cfg := h.cfg
	n := len(cfg.reshardPlan)
	if cfg.retargetEps > 0 {
		n++
	}
	var evs []event
	for i, p := range cfg.reshardPlan {
		p := p
		at := cfg.ops * int64(i+1) / int64(n+1)
		evs = append(evs, event{at: at, name: fmt.Sprintf("reshard(%d)", p), run: func() { h.doReshard(p) }})
	}
	if cfg.retargetEps > 0 {
		evs = append(evs, event{at: cfg.ops * 6 / 10, name: fmt.Sprintf("retarget(ε=%g)", cfg.retargetEps), run: h.doRetarget})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

func (h *harness) doReshard(p int) {
	var err error
	if h.cash != nil {
		err = h.cash.Reshard(p)
	} else {
		err = h.turn.Reshard(p)
	}
	if err != nil {
		h.fail("reshard(%d): %v", p, err)
		return
	}
	h.reshards++
	c := h.c()
	h.sayf("resharded -> %d shards (generation %d, %d frozen components) at ops=%d",
		c.Shards(), c.Generation(), c.Components(), h.opsDone.Load())
}

// doRetarget rebuilds the cash container to the new ε budget through
// merge. The turnstile families cannot freeze components under
// deletions, so there a config-changing retarget must be REJECTED
// cleanly — the soak asserts exactly that.
func (h *harness) doRetarget() {
	cfg := h.cfg
	if h.cash != nil {
		fresh := cashFactory(cfg.algo, cfg.retargetEps, cfg.bits, cfg.seed)
		if err := h.cash.Retarget(fresh); err != nil {
			h.fail("retarget(ε=%g): %v", cfg.retargetEps, err)
			return
		}
		h.retargets++
		h.sayf("retargeted to ε=%g (budget now %.3f, %d components) at ops=%d",
			cfg.retargetEps, h.cash.EpsBudget(), h.cash.Components(), h.opsDone.Load())
		return
	}
	// Writers keep deleting between the two counts unless the gate
	// pauses them, so the comparison holds it, as verifyBarrier does.
	h.gate.Lock()
	defer h.gate.Unlock()
	before := h.turn.Count()
	fresh := turnFactory(cfg.algo, cfg.retargetEps, cfg.bits, cfg.seed)
	if err := h.turn.Retarget(fresh); err == nil {
		h.fail("turnstile retarget to ε=%g was accepted; deletions make freezing unsound, it must be rejected", cfg.retargetEps)
		return
	}
	if after := h.turn.Count(); after != before {
		h.fail("rejected turnstile retarget changed the state: count %d -> %d", before, after)
		return
	}
	h.retargets++
	h.sayf("turnstile retarget to ε=%g rejected cleanly (state intact) at ops=%d", cfg.retargetEps, h.opsDone.Load())
}

// coordinate fires milestones, checkpoints and mid-run barriers as
// ingestion progresses, then drains whatever is still due once the
// writers finish.
func (h *harness) coordinate(writersDone <-chan struct{}) {
	evs := h.buildEvents()
	next := 0
	nextCkpt := int64(0)
	if h.ck != nil {
		nextCkpt = h.cfg.ckptEvery
	}
	nextVerify := h.cfg.verifyEvery
	for {
		ops := h.opsDone.Load()
		for next < len(evs) && ops >= evs[next].at {
			evs[next].run()
			next++
		}
		if nextCkpt > 0 && ops >= nextCkpt {
			h.ck.save()
			nextCkpt += h.cfg.ckptEvery
		}
		if nextVerify > 0 && ops >= nextVerify && ops < h.cfg.ops {
			h.verifyBarrier(fmt.Sprintf("ops=%d", ops))
			nextVerify += h.cfg.verifyEvery
		}
		select {
		case <-writersDone:
			for ; next < len(evs); next++ {
				evs[next].run()
			}
			return
		case <-h.wake:
		}
	}
}

// ckptDriver owns the checkpoint directory for the run. With -faults it
// interposes a faultio.Injector between the checkpointer and the real
// filesystem and arms a deterministic schedule: every third save fights
// through transient write errors (retried inside the checkpoint layer's
// backoff), every fourth dies to an injected torn-write crash — after
// which the driver revives the filesystem and runs a recovery drill,
// asserting the newest surviving generation decodes to an exact
// previously-saved state, never a torn one.
type ckptDriver struct {
	h    *harness
	ck   *sq.Checkpointer
	base checkpoint.FS
	inj  *faultio.Injector

	saved   map[uint64]int64 // generation -> element count at save
	saves   int
	crashes int
	drills  int

	retr *retry.Retrier
}

func newCkptDriver(h *harness) (*ckptDriver, error) {
	d := &ckptDriver{
		h:     h,
		base:  checkpoint.OSFS{},
		saved: map[uint64]int64{},
		retr: retry.New(retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond},
			retry.WithSleep(func(time.Duration) {}), retry.WithSeed(h.cfg.seed)),
	}
	opts := []sq.CheckpointOption{
		checkpoint.WithJitterSeed(h.cfg.seed),
		checkpoint.WithSleep(func(time.Duration) {}),
	}
	if h.cfg.faults {
		d.inj = faultio.New(d.base)
		opts = append(opts, checkpoint.WithFS(d.inj))
	}
	ck, err := sq.OpenCheckpointDir(h.cfg.ckptDir, opts...)
	if err != nil {
		return nil, err
	}
	d.ck = ck
	return d, nil
}

// save publishes the container as the next generation, driving the
// armed fault schedule, and records the decoded element count of the
// exact bytes written so a later recovery can be checked for tearing.
func (d *ckptDriver) save() {
	h := d.h
	d.saves++
	if h.cfg.faults {
		switch {
		case d.saves%4 == 0:
			d.inj.CrashAfterBytes(64 + (d.saves*37)%512)
			h.logf("armed torn-write crash for save %d", d.saves)
		case d.saves%3 == 0:
			d.inj.FailOp(faultio.OpWrite, 1, 2)
			h.logf("armed transient write faults for save %d", d.saves)
		}
	}
	blob, err := h.c().MarshalBinary()
	if err != nil {
		h.fail("checkpoint marshal: %v", err)
		return
	}
	gen, err := d.ck.Save(h.cfg.algo, blob)
	if err != nil {
		if errors.Is(err, faultio.ErrCrashed) {
			d.crashes++
			h.sayf("save %d crashed mid-write (injected); reviving and drilling recovery", d.saves)
			d.inj.Revive()
			d.drill()
			return
		}
		h.fail("checkpoint save %d: %v", d.saves, err)
		return
	}
	count, err := decodedCount(h.cfg, blob)
	if err != nil {
		h.fail("checkpoint generation %d does not round-trip: %v", gen, err)
		return
	}
	d.saved[gen] = count
	h.logf("checkpointed generation %d (n=%d)", gen, count)
}

// drill recovers from the real filesystem after an injected crash and
// checks the result is a complete previously-published generation. The
// recovery itself runs under the extracted retry helper: a storage
// layer that just crashed may keep throwing transients for a while.
func (d *ckptDriver) drill() {
	h := d.h
	d.drills++
	cash, turn, err := buildContainers(h.cfg)
	if err != nil {
		h.fail("recovery drill: rebuild container: %v", err)
		return
	}
	var target container
	var dec encoding.BinaryUnmarshaler
	if cash != nil {
		target, dec = cash, cash
	} else {
		target, dec = turn, turn
	}
	var rep *sq.RecoveryReport
	err = d.retr.Do(func() error {
		var rerr error
		rep, rerr = sq.RecoverCheckpointFS(d.base, h.cfg.ckptDir, dec)
		return rerr
	}, checkpoint.IsTransient)
	if err != nil {
		if errors.Is(err, sq.ErrNoCheckpoint) && len(d.saved) == 0 {
			h.logf("recovery drill: nothing published yet, directory clean")
			return
		}
		h.fail("recovery drill: %v", err)
		return
	}
	want, ok := d.saved[rep.Generation]
	if !ok {
		h.fail("recovery drill loaded generation %d which was never fully published (torn?)", rep.Generation)
		return
	}
	if got := target.Count(); got != want {
		h.fail("recovery drill: generation %d decoded to %d elements, published with %d", rep.Generation, got, want)
		return
	}
	if err := target.Invariants(); err != nil {
		h.fail("recovery drill: recovered invariants: %v", err)
		return
	}
	h.sayf("recovery drill ok: generation %d, n=%d, %d shards", rep.Generation, target.Count(), target.Shards())
}

// decodedCount round-trips blob through a fresh container and returns
// its element count — the reference for crash-recovery drills.
func decodedCount(cfg *config, blob []byte) (int64, error) {
	cash, turn, err := buildContainers(cfg)
	if err != nil {
		return 0, err
	}
	if cash != nil {
		if err := cash.UnmarshalBinary(blob); err != nil {
			return 0, err
		}
		return cash.Count(), nil
	}
	if err := turn.UnmarshalBinary(blob); err != nil {
		return 0, err
	}
	return turn.Count(), nil
}

// recoverForResume loads the newest checkpoint into the run's container
// before any ingestion.
func (h *harness) recoverForResume() error {
	var rep *sq.RecoveryReport
	var err error
	if h.cash != nil {
		rep, err = sq.RecoverCheckpoint(h.cfg.ckptDir, h.cash)
	} else {
		rep, err = sq.RecoverCheckpoint(h.cfg.ckptDir, h.turn)
	}
	if err != nil {
		return err
	}
	h.resumed = true
	h.baseCount = h.c().Count()
	h.sayf("resumed from checkpoint generation %d (label %q): n=%d, %d shards, generation %d",
		rep.Generation, rep.Label, h.baseCount, h.c().Shards(), h.c().Generation())
	if len(rep.Skipped) > 0 {
		h.sayf("recovery skipped %d torn/corrupt generation(s): %s", len(rep.Skipped), rep.String())
	}
	return nil
}

// run executes one soak and returns the process exit code.
func run(cfg *config, stdout, stderr io.Writer) int {
	cash, turn, err := buildContainers(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "quantstress:", err)
		return 2
	}
	h := &harness{
		cfg:       cfg,
		out:       stdout,
		cash:      cash,
		turn:      turn,
		inserted:  make([]atomic.Int64, cfg.writers),
		deleted:   make([]atomic.Int64, cfg.writers),
		wake:      make(chan struct{}, 1),
		ingestLat: newLatSketch(cfg.seed ^ 0xa5),
		queryLat:  newLatSketch(cfg.seed ^ 0x5a),
		drainLat:  newLatSketch(cfg.seed ^ 0xd7),
		ckptLat:   newLatSketch(cfg.seed ^ 0xc4),
	}
	// Ingestion-stall telemetry: the containers bracket every per-shard
	// drain of an elastic operation through this hook (they never time
	// anything themselves); the report asserts the -slo-drain-max bound
	// over the recorded durations.
	obs := sq.DrainObserver(func(int) func() {
		t0 := time.Now()
		return func() { h.drainLat.observe(time.Since(t0)) }
	})
	// Checkpoint-stall telemetry: the fan-out marshal brackets each live
	// shard's encode (the only window a writer on that shard can stall
	// for) through the same observer shape.
	cobs := sq.CheckpointObserver(func(int) func() {
		t0 := time.Now()
		return func() { h.ckptLat.observe(time.Since(t0)) }
	})
	if cash != nil {
		cash.SetDrainObserver(obs)
		cash.SetCheckpointObserver(cobs)
	} else {
		turn.SetDrainObserver(obs)
		turn.SetCheckpointObserver(cobs)
	}
	per := int(cfg.ops) / cfg.writers
	rem := int(cfg.ops) % cfg.writers
	for w := 0; w < cfg.writers; w++ {
		g, err := generator(cfg, w)
		if err != nil {
			fmt.Fprintln(stderr, "quantstress:", err)
			return 2
		}
		n := per
		if w < rem {
			n++
		}
		h.streams = append(h.streams, streamgen.Generate(g, n))
	}
	h.sayf("algo=%s eps=%g dist=%s shards=%d writers=%d readers=%d ops=%d batch=%d seed=%d",
		cfg.algo, cfg.eps, cfg.dist, cfg.shards, cfg.writers, cfg.readers, cfg.ops, cfg.batch, cfg.seed)
	if cfg.resume {
		if err := h.recoverForResume(); err != nil {
			fmt.Fprintln(stderr, "quantstress: resume:", err)
			return 1
		}
	}
	if cfg.ckptDir != "" {
		d, err := newCkptDriver(h)
		if err != nil {
			fmt.Fprintln(stderr, "quantstress: checkpoint:", err)
			return 1
		}
		h.ck = d
	}

	stopReaders := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < cfg.readers; r++ {
		readerWG.Add(1)
		go func(r int) { defer readerWG.Done(); h.reader(r, stopReaders) }(r)
	}
	writersDone := make(chan struct{})
	var coordWG sync.WaitGroup
	coordWG.Add(1)
	go func() { defer coordWG.Done(); h.coordinate(writersDone) }()
	var writerWG sync.WaitGroup
	for w := 0; w < cfg.writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			if h.cash != nil {
				h.cashWriter(w)
			} else {
				h.turnWriter(w)
			}
		}(w)
	}
	writerWG.Wait()
	close(writersDone)
	coordWG.Wait()
	close(stopReaders)
	readerWG.Wait()

	h.verifyBarrier("final")
	if h.ck != nil {
		h.ck.save()
	}
	return h.report(stderr)
}

// report prints the run summary, applies the latency SLOs, and decides
// the exit code.
func (h *harness) report(stderr io.Writer) int {
	c := h.c()
	ckpts, crashes, drills := 0, 0, 0
	if h.ck != nil {
		ckpts, crashes, drills = h.ck.saves, h.ck.crashes, h.ck.drills
	}
	h.sayf("done: n=%d queries=%d shards=%d generation=%d components=%d eps-budget=%.3f",
		c.Count(), h.queries.Load(), c.Shards(), c.Generation(), c.Components(), c.EpsBudget())
	h.sayf("events: reshards=%d retargets=%d barriers=%d checkpoints=%d injected-crashes=%d recovery-drills=%d",
		h.reshards, h.retargets, h.verifies, ckpts, crashes, drills)
	in, ip50, ip99, imax := h.ingestLat.report()
	qn, qp50, qp99, qmax := h.queryLat.report()
	dn, dp50, dp99, dmax := h.drainLat.report()
	cn, cp50, cp99, cmax := h.ckptLat.report()
	h.sayf("ingest batches=%d p50=%v p99=%v max=%v", in, ip50, ip99, imax)
	h.sayf("queries n=%d p50=%v p99=%v max=%v", qn, qp50, qp99, qmax)
	h.sayf("shard drains n=%d p50=%v p99=%v max=%v (per-shard ingestion stall during reshard/retarget)", dn, dp50, dp99, dmax)
	h.sayf("shard marshals n=%d p50=%v p99=%v max=%v (per-shard ingestion stall during checkpoint save)", cn, cp50, cp99, cmax)
	if h.cfg.sloIngest > 0 && ip99 > h.cfg.sloIngest {
		h.fail("SLO: ingest p99 %v exceeds %v", ip99, h.cfg.sloIngest)
	}
	if h.cfg.sloQuery > 0 && qp99 > h.cfg.sloQuery {
		h.fail("SLO: query p99 %v exceeds %v", qp99, h.cfg.sloQuery)
	}
	if h.cfg.sloDrain > 0 && dmax > h.cfg.sloDrain {
		h.fail("SLO: max per-shard drain %v exceeds %v — ingestion stalled longer than the elastic protocol promises", dmax, h.cfg.sloDrain)
	}
	if h.cfg.sloCkpt > 0 && cmax > h.cfg.sloCkpt {
		h.fail("SLO: max per-shard checkpoint marshal %v exceeds %v — a save stalled a writer longer than stop-the-shard promises", cmax, h.cfg.sloCkpt)
	}
	h.mu.Lock()
	violations := h.violations
	h.mu.Unlock()
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "quantstress: VIOLATION:", v)
		}
		fmt.Fprintf(stderr, "quantstress: FAIL (%d violations)\n", len(violations))
		return 1
	}
	h.sayf("PASS")
	return 0
}
