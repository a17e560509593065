package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"streamquantiles/internal/streamgen"
)

// The baseline modes (-bench ingest|query|parallel|checkpoint) measure
// what the engine's fast paths buy on this machine and record it in a
// BENCH_*.json report; -compare gates a fresh report against a committed
// one. All four share the schema, timer, merge and compare below: a path
// contributes only its roster and, per row, the two closures it times.
//
// Every row is a ratio of two timings of the same work, never an
// absolute rate, because a ratio is a property of the code where Melem/s
// is a property of the machine:
//
//   - a speedup row times a reference path (per-item updates, per-φ
//     queries, a cold fold) against the fast path at the same p:
//     ratio = ref / got;
//   - a scaling row times the sequential run (p = 1) against the same
//     work fanned out p ways, normalized to the cores that can serve it:
//     ratio = ref / got / min(p, GOMAXPROCS), clamped at 1.
//
// Perfect scaling is 1.0 at any core count. The clamp exists because
// splitting a stream into p smaller summaries can be superlinear on its
// own (compaction cost grows faster than n); left unclamped, such a
// baseline would set floors no honestly-scaling machine clears.
// Efficiency is only comparable between runs at the same GOMAXPROCS —
// at 1 it measures fan-out overhead, at 2 real scaling — so compare
// refuses a baseline recorded at another value.

// report is the schema of every BENCH_*.json.
type report struct {
	N          int    `json:"n"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"goversion"`
	Workload   string `json:"workload"`
	Rows       []row  `json:"rows"`
}

// row is one (path, summary, parallelism) measurement: the fastest
// per-call time of each side, in microseconds, and their ratio.
type row struct {
	Path    string  `json:"path"`
	Summary string  `json:"summary"`
	P       int     `json:"p"`
	Scaling bool    `json:"scaling,omitempty"`
	RefUs   float64 `json:"ref_us"`
	GotUs   float64 `json:"got_us"`
	Ratio   float64 `json:"ratio"`
}

type rowKey struct {
	path, summary string
	p             int
}

func (r row) key() rowKey { return rowKey{r.Path, r.Summary, r.P} }

func (r row) String() string { return fmt.Sprintf("%s %s p=%d", r.Path, r.Summary, r.P) }

// setRatio derives Ratio from the two timings (see the rules above).
func (r *row) setRatio(gomaxprocs int) {
	r.Ratio = r.RefUs / r.GotUs
	if r.Scaling {
		r.Ratio = min(r.Ratio/float64(min(r.P, gomaxprocs)), 1)
	}
}

// gated lists the rows compare checks: for each (path, summary), the row
// at the largest p. A speedup path has one row per summary, so every
// speedup gates; a scaling sweep gates at its widest fan-out, where a
// lost worker shows most.
func (rep *report) gated() []row {
	top := map[[2]string]int{}
	for i, r := range rep.Rows {
		k := [2]string{r.Path, r.Summary}
		if j, ok := top[k]; !ok || r.P > rep.Rows[j].P {
			top[k] = i
		}
	}
	var out []row
	for i, r := range rep.Rows {
		if top[[2]string{r.Path, r.Summary}] == i {
			out = append(out, r)
		}
	}
	return out
}

// Timer settings. A trial repeats its closure until it has run for
// minTrial (or maxCalls times), so microsecond query paths average over
// thousands of calls while second-scale ingest passes run once; each
// side keeps the fastest of `trials` trials, the standard correction for
// a scheduler that only ever adds time.
const (
	trials   = 3
	minTrial = 250 * time.Millisecond
	maxCalls = 1 << 16
)

// timePair times ref and got in interleaved trials — ref, got, ref, got,
// … — and returns each side's fastest per-call time. Interleaving puts
// both sides of a ratio in the same few seconds of machine state, so a
// noisy neighbour slows both instead of skewing one.
func timePair(ref, got func()) (refD, gotD time.Duration) {
	for t := 0; t < trials; t++ {
		r, g := trial(ref), trial(got)
		if t == 0 || r < refD {
			refD = r
		}
		if t == 0 || g < gotD {
			gotD = g
		}
	}
	return refD, gotD
}

func trial(fn func()) time.Duration {
	runtime.GC() // start from a clean heap, not the other side's garbage
	start := time.Now()
	for calls := 1; ; calls++ {
		fn()
		if el := time.Since(start); el >= minTrial || calls == maxCalls {
			return el / time.Duration(calls)
		}
	}
}

// meter collects one measurement pass's rows.
type meter struct{ rep report }

// speedup times ref against got at parallelism p and records the row.
func (m *meter) speedup(path, summary string, p int, ref, got func()) {
	m.add(row{Path: path, Summary: summary, P: p}, ref, got)
}

// sweep records one scaling row per p: run(1) against run(p).
func (m *meter) sweep(path, summary string, ps []int, run func(p int)) {
	for _, p := range ps {
		m.add(row{Path: path, Summary: summary, P: p, Scaling: true}, func() { run(1) }, func() { run(p) })
	}
}

func (m *meter) add(r row, ref, got func()) {
	refD, gotD := timePair(ref, got)
	r.RefUs, r.GotUs = us(refD), us(gotD)
	r.setRatio(m.rep.GOMAXPROCS)
	m.rep.Rows = append(m.rep.Rows, r)
	fmt.Fprintf(os.Stderr, "%-36s ref %12.2f us   got %12.2f us   ratio %8.2f\n", r, r.RefUs, r.GotUs, r.Ratio)
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// benches maps each -bench path to its measurement pass.
var benches = map[string]func(m *meter, data []uint64){
	"ingest":     measureIngest,
	"query":      measureQuery,
	"parallel":   measureParallel,
	"checkpoint": measureCheckpoint,
}

// runBench measures one path runs times over an n-element uniform
// stream, folds the passes with merge, and writes the report. A
// committed baseline uses several runs, so its ratios lower-bound a
// typical run and the compare tolerance absorbs machine noise instead
// of stacking on top of a lucky baseline.
func runBench(name string, n, runs int, out string) error {
	measure, ok := benches[name]
	if !ok {
		return fmt.Errorf("unknown -bench %q (want ingest, query, parallel or checkpoint)", name)
	}
	if n <= 0 {
		n = 2_000_000
	}
	gen := streamgen.Uniform{Bits: 24, Seed: 1}
	data := streamgen.Generate(gen, n)
	var rep report
	for r := 0; r < max(runs, 1); r++ {
		if runs > 1 {
			fmt.Fprintf(os.Stderr, "-- run %d/%d --\n", r+1, runs)
		}
		m := &meter{rep: report{
			N:          n,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Workload:   gen.Name(),
		}}
		measure(m, data)
		if r == 0 {
			rep = m.rep
		} else {
			rep = merge(rep, m.rep)
		}
	}
	return writeReport(&rep, out)
}

// merge folds run b into a conservatively: per row it keeps whichever
// run measured the lower ratio, timings and all. The merged ratio is the
// minimum over the input runs, so a baseline built from several runs
// sets floors a typical run clears even when one measurement lands on a
// throttled scheduler slice; and each kept ref/got pair still comes from
// one interleaved timing, which a merge mixing runs would undo.
func merge(a, b report) report {
	bBy := map[rowKey]row{}
	for _, r := range b.Rows {
		bBy[r.key()] = r
	}
	rows := make([]row, len(a.Rows))
	for i, r := range a.Rows {
		if o, ok := bBy[r.key()]; ok && o.Ratio < r.Ratio {
			r = o
		}
		rows[i] = r
	}
	a.Rows = rows
	return a
}

// compare gates cur against the baseline base: every gated baseline row
// must be present in cur with a ratio no more than tol below the
// baseline's. It prints one line per gated row to w and returns an error
// naming each row that regressed or is missing.
func compare(base, cur *report, tol float64, w io.Writer) error {
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		return fmt.Errorf("baseline recorded at gomaxprocs %d, run at gomaxprocs %d: scaling efficiency is only comparable at the same core count (pin the run with -cpus %d)",
			base.GOMAXPROCS, cur.GOMAXPROCS, base.GOMAXPROCS)
	}
	curBy := map[rowKey]row{}
	for _, r := range cur.Rows {
		curBy[r.key()] = r
	}
	var failed []string
	for _, o := range base.gated() {
		floor := o.Ratio * (1 - tol)
		r, ok := curBy[o.key()]
		status := "ok"
		switch {
		case !ok:
			status = "MISSING"
		case r.Ratio < floor:
			status = "REGRESSED"
		}
		fmt.Fprintf(w, "%-36s %-9s ratio %8.2f vs baseline %8.2f (floor %.2f)\n", o, status, r.Ratio, o.Ratio, floor)
		if status != "ok" {
			failed = append(failed, o.String())
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gated row(s) regressed more than %.0f%% or are missing: %s",
			len(failed), tol*100, strings.Join(failed, "; "))
	}
	return nil
}

// runCompare reads a baseline and a fresh report and gates one against
// the other.
func runCompare(basePath, curPath string, tol float64) error {
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	cur, err := readReport(curPath)
	if err != nil {
		return err
	}
	return compare(base, cur, tol, os.Stdout)
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows (not a baseline report?)", path)
	}
	return &rep, nil
}

// writeReport writes rep as indented JSON to out, or to stdout when out
// is empty or "-".
func writeReport(rep *report, out string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quantbench: "+format+"\n", args...)
	os.Exit(1)
}

// check aborts the measurement on a setup error: the rosters are fixed,
// so any error here is a bug, not an input to report.
func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}
