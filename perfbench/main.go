// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds, checks every
// answer it can against internal/exact, and prints every metric by name
// with its unit and sample count, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced half and a traced half, and the
// metrics are the per-layer ones taken from the traced half's spans.
// BENCHMARK.json at the repository root lists both sets and the
// workloads; predictions.json beside this file records which
// end-to-end metric each per-layer metric is expected to move.
//
// The paper-roster workload runs the study's summaries one after another
// in one goroutine (roster.go); cash-live and turnstile-churn run a
// sharded container under live writers, queries, checkpoints and
// reshards (live.go). The end-to-end metrics are:
//
//	setup_s             median of several set-ups (construction, warm-up,
//	                    turnstile window pre-fill)
//	ingest_melem_per_s  live: median over 3-s windows of elements admitted
//	                    per second; roster: geometric mean over summaries
//	ingest_p99_us       p99 of one write call; live: median over windows,
//	                    roster: median over rounds, geometric mean
//	query_p50_us        live: QuantileBatch latency from its due time;
//	query_p90_us        roster: first query after writes, per summary
//	                    median over rounds, geometric mean
//	checkpoint_save_ms  median encode plus Checkpointer.Save
//	recover_ms          median RecoverCheckpointFS into a fresh container
//	space_kib           live: median SpaceBytes at the saves; roster:
//	                    geometric mean of SpaceBytes after a round
//	peak_rss_mib        resident high-water mark when measurement ends
//
// The result line's failed/attempted is the failed-operation fraction:
// every write, query, save, recovery and check counts as attempted.
//
// Build and run from the repository root with perfbench/run.sh, which
// keeps every build artifact under .bench_build:
//
//	bash perfbench/run.sh --workload paper-roster --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare old.json new.json
//
// Each run also writes its report (machine shape, inputs, metrics and
// sample counts) to <out>/reports/; --compare diffs two such reports and
// refuses when they were taken on different core counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool   // tiny sizes, for the self-test
	out      string // directory for reports and span files; "" writes none
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run, config) error{
	"paper-roster":    runRoster,
	"cash-live":       func(r *run, cfg config) error { return runLive(r, cfg, cashLive) },
	"turnstile-churn": func(r *run, cfg config) error { return runLive(r, cfg, turnstileChurn) },
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper-roster, cash-live or turnstile-churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for the report and span files (none when empty)")
	compare := fs.Bool("compare", false, "compare the two report files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg.trace = trace == 1
	r, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := r.print(stdout, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// execute runs one workload and fills in every metric of its kind.
func execute(cfg config) (*run, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	r := newRun()
	if err := fn(r, cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.fillLayers()
	return r, nil
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one run's metrics, operation counts and failures.
type run struct {
	inputs    []string
	e2e       map[string]metricValue
	layers    map[string]metricValue
	samples   map[string]int
	notes     []string
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string // guarded by mu; the first few only
}

func newRun() *run {
	return &run{e2e: map[string]metricValue{}, layers: map[string]metricValue{}, samples: map[string]int{}}
}

// setSamples records an end-to-end metric and how many samples it rests on.
func (r *run) setSamples(name, unit string, v float64, samples int) {
	r.e2e[name] = metricValue{v, unit}
	r.samples[name] = samples
}

// layer records a per-layer metric.
func (r *run) layer(name, unit string, v float64) { r.layers[name] = metricValue{v, unit} }

// note adds a line to the human-readable report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops counts n operations that cannot fail short of a crash.
func (r *run) ops(n int64) { r.attempted.Add(n) }

// check counts one verified operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if ok {
		return true
	}
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// op counts one operation that returned err.
func (r *run) op(err error, format string, args ...any) bool {
	if err == nil {
		return r.check(true, "")
	}
	return r.check(false, "%s: %v", fmt.Sprintf(format, args...), err)
}

func (r *run) correct() bool { return r.failed.Load() == 0 }

// peakRSS records the process's resident-memory high-water mark so far;
// workloads call it when measurement ends, before verification allocates.
func (r *run) peakRSS() error {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	r.setSamples("peak_rss_mib", "MiB", float64(ru.Maxrss)/1024, 1)
	return nil
}

// fillLayers gives every per-layer metric a workload does not exercise
// the value 0, so every run reports the same names.
func (r *run) fillLayers() {
	for _, m := range perLayerMetrics() {
		if _, ok := r.layers[m.name]; !ok {
			r.layers[m.name] = metricValue{0, m.unit}
		}
	}
}

// report is what a run writes to <out>/reports/: enough to compare two
// runs and to refuse comparing runs taken on different machine shapes.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	NumCPU     int                    `json:"numcpu"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"goversion"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	Inputs     []string               `json:"inputs"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string]int         `json:"samples,omitempty"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
}

func (r *run) report(cfg config) report {
	metrics := r.e2e
	if cfg.trace {
		metrics = r.layers
	}
	return report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Inputs: r.inputs, Metrics: metrics, Samples: r.samples,
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Failures: r.failures, Notes: r.notes,
	}
}

// print writes the human-readable report, saves the report file, and
// ends with the JSON result line.
func (r *run) print(w io.Writer, cfg config) error {
	rep := r.report(cfg)
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%t\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "machine: numcpu=%d gomaxprocs=%d go=%s %s/%s\n", rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, rep.GOOS, rep.GOARCH)
	for _, in := range rep.Inputs {
		fmt.Fprintf(w, "input: %s\n", in)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		line := fmt.Sprintf("metric: %-36s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := rep.Samples[name]; ok && !cfg.trace {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	frac := float64(rep.Failed) / float64(max(1, rep.Attempted))
	fmt.Fprintf(w, "failed_op_frac: %g (%d of %d operations)\n", frac, rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	if cfg.out != "" {
		if err := writeReport(cfg, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Failed == 0, max(1, rep.Attempted), rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func writeReport(cfg config, rep report) error {
	dir := filepath.Join(cfg.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	return os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644)
}

// writeSpans stores a traced phase's spans beside the reports.
func (cfg config) writeSpans(tr *tracer) error {
	if cfg.out == "" {
		return nil
	}
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed)))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareReports prints each metric of two reports side by side. Runs
// taken on different core counts, Go versions or workloads measure
// different things; it refuses them rather than normalizing.
func compareReports(oldPath, newPath string, stdout, stderr io.Writer) int {
	var reps [2]report
	for i, p := range []string{oldPath, newPath} {
		blob, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(blob, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := reps[0], reps[1]
	var diffs []string
	if a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("numcpu/gomaxprocs %d/%d vs %d/%d", a.NumCPU, a.GOMAXPROCS, b.NumCPU, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || strings.Join(a.Inputs, ";") != strings.Join(b.Inputs, ";") {
		diffs = append(diffs, fmt.Sprintf("workload %s %v vs %s %v", a.Workload, a.Inputs, b.Workload, b.Inputs))
	}
	if len(diffs) > 0 {
		fmt.Fprintf(stderr, "perfbench: refusing to compare reports taken on different shapes: %s\n", strings.Join(diffs, "; "))
		return 2
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		x, y := a.Metrics[name], b.Metrics[name]
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (y.Value/x.Value-1)*100)
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %s %s\n", name, x.Value, y.Value, x.Unit, change)
	}
	return 0
}
