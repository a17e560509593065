package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer: its name, start, end and the span that caused it. Spans are
// recorded from the benchmark's own files, around calls into the
// library's public functions and inside the observer callbacks the
// containers offer (drain and per-shard marshal windows); the library
// itself is not instrumented. Spans stay in memory until the run ends
// and are then written out once.

// epoch anchors every timestamp the benchmark takes; monotonic ns since
// process start.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// span is one call into a layer. Parent is 0 for a root span.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64
}

// lane is one goroutine's span buffer: appends need no lock.
type lane struct {
	id    uint64
	seq   uint64
	spans []span
}

// reserve returns a fresh span ID, for a parent whose children are
// recorded before the parent itself ends.
func (l *lane) reserve() uint64 {
	l.seq++
	return l.id<<40 | l.seq
}

// put records a span under an ID from reserve.
func (l *lane) put(id, parent uint64, name string, start, end int64) {
	l.spans = append(l.spans, span{id, parent, name, start, end})
}

// add records a span and returns its ID.
func (l *lane) add(parent uint64, name string, start, end int64) uint64 {
	id := l.reserve()
	l.put(id, parent, name, start, end)
	return id
}

// tracer owns every lane of one traced phase. A nil *tracer is valid
// and records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu     sync.Mutex
	lanes  []*lane
	shared *lane         // observer callbacks, which run on library goroutines; guarded by mu
	parent atomic.Uint64 // the open span that observer spans nest under
}

func newTracer() *tracer {
	t := &tracer{}
	t.shared = t.lane()
	return t
}

// lane registers a new goroutine-private lane; nil on a nil tracer.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{id: uint64(len(t.lanes) + 1)}
	t.lanes = append(t.lanes, l)
	return l
}

// observer returns a container observer that records each bracketed
// window as a span named name under the tracer's current parent. The
// containers call it from their own worker goroutines, so it records
// into the shared lane under the lock.
func (t *tracer) observer(name string) func(shard int) func() {
	return func(int) func() {
		start := now()
		parent := t.parent.Load()
		return func() {
			end := now()
			t.mu.Lock()
			t.shared.add(parent, name, start, end)
			t.mu.Unlock()
		}
	}
}

// layerTimes is the aggregate of every span with one name.
type layerTimes struct {
	durs  []int64 // span durations, ns
	selfs []int64 // each span's duration minus the time its children cover, ns
	busy  int64   // sum of durations, ns
}

// layerMap holds the aggregate of each span name.
type layerMap map[string]*layerTimes

// get returns name's aggregate, empty when no span had that name.
func (m layerMap) get(name string) *layerTimes {
	if lt := m[name]; lt != nil {
		return lt
	}
	return &layerTimes{}
}

// aggregate groups the recorded spans by name and computes self times:
// a span's duration minus the union of its children's intervals within
// it (children may overlap, as parallel per-shard marshals do).
func (t *tracer) aggregate() layerMap {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
	}
	out := layerMap{}
	for _, l := range t.lanes {
		for _, s := range l.spans {
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTimes{}
				out[s.Name] = lt
			}
			d := s.End - s.Start
			lt.durs = append(lt.durs, d)
			lt.busy += d
			lt.selfs = append(lt.selfs, d-covered(children[s.ID], s.Start, s.End))
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores every span as CSV, one line each, in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	t.mu.Lock()
	for _, l := range t.lanes {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Name, s.Start, s.End)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a reading of the Go runtime's own counters; the
// per-layer runtime.* metrics are differences between two readings.
type runtimeSample struct {
	mutexWait, gcCPU, totalCPU, allocBytes float64
	sched                                  *metrics.Float64Histogram
}

var runtimeKeys = []string{
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ss[i].Name = k
	}
	metrics.Read(ss)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	r := runtimeSample{
		mutexWait:  num(ss[0].Value),
		gcCPU:      num(ss[1].Value),
		totalCPU:   num(ss[2].Value),
		allocBytes: num(ss[3].Value),
	}
	if ss[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[4].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{Counts: slices.Clone(h.Counts), Buckets: h.Buckets}
	}
	return r
}

// runtimeLayers records the runtime.* per-layer metrics for the
// interval between two readings.
func runtimeLayers(r *run, a, b runtimeSample) {
	r.layer("runtime.mutex_wait_s", "s", b.mutexWait-a.mutexWait)
	frac := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	r.layer("runtime.gc_cpu_frac", "ratio", frac)
	r.layer("runtime.alloc_mib", "MiB", (b.allocBytes-a.allocBytes)/(1<<20))
	r.layer("runtime.sched_p99_us", "us", schedP99(a.sched, b.sched)*1e6)
}

// schedP99 returns the upper edge of the bucket holding the 99th
// percentile of goroutine scheduling latency between two histogram
// readings, in seconds.
func schedP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > want {
			if up := b.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
