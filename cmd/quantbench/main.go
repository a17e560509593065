// Command quantbench reproduces the paper's evaluation: it runs any (or
// all) of the experiments behind Figures 5–12 and Tables 3–4, plus the
// reproduction's own ablations, and renders the measurements as text
// tables, CSV, or the markdown report checked in as EXPERIMENTS.md.
//
// Usage:
//
//	quantbench -exp fig5                # one experiment, text table
//	quantbench -exp fig10 -n 1000000    # paper-scale stream length
//	quantbench -all -format markdown    # full report (EXPERIMENTS.md)
//	quantbench -list                    # available experiments
//
// and measures and gates the engine's own fast paths:
//
//	quantbench -bench query -runs 3 -out BENCH_query.json   # record a baseline
//	quantbench -compare BENCH_query.json new.json           # gate a run against it
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"streamquantiles/internal/harness"
)

// startProfiles arms the runtime's contention profilers for whichever
// paths are set and returns the function that snapshots them to disk.
func startProfiles(mutexPath, blockPath string) func() {
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(10_000) // sample blocking beyond 10µs
	}
	return func() {
		writeProfile("mutex", mutexPath)
		writeProfile("block", blockPath)
	}
}

func writeProfile(kind, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantbench: %s profile: %v\n", kind, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(kind).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "quantbench: %s profile: %v\n", kind, err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s profile %s\n", kind, path)
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		n       = flag.Int("n", 0, "stream length (default 200000)")
		seed    = flag.Uint64("seed", 1, "workload/algorithm seed")
		repeats = flag.Int("repeats", 0, "seed-averaging repeats for randomized algorithms (default 3)")
		format  = flag.String("format", "table", "output format: table, csv, markdown, html")
		verify  = flag.Bool("verify", false, "run all experiments and check the paper's shape claims")

		bench = flag.String("bench", "", "measure one baseline path and write its JSON report: ingest, query, parallel or checkpoint")
		runs  = flag.Int("runs", 1, "measurement passes for -bench; >1 keeps the conservative merge (baselines)")
		out   = flag.String("out", "", "write the -bench report here (default stdout)")
		cmp   = flag.Bool("compare", false, "gate a report against a baseline: quantbench -compare old.json new.json")
		tol   = flag.Float64("tol", 0.25, "allowed fractional ratio regression for -compare")

		cpus         = flag.Int("cpus", 0, "pin GOMAXPROCS for the run (0 = leave as is); reports record the effective value")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile of the measurement here")
		blockProfile = flag.String("blockprofile", "", "write a blocking profile of the measurement here")
	)
	flag.Parse()

	if *cpus > 0 {
		runtime.GOMAXPROCS(*cpus)
	}
	// Contention observability: with a profile path set, the runtime
	// samples mutex hold-ups / blocking for the whole measurement and the
	// profile is written on the way out — the "where did the time go"
	// answer when a scaling gate regresses.
	defer startProfiles(*mutexProfile, *blockProfile)()

	if *bench != "" {
		if err := runBench(*bench, *n, *runs, *out); err != nil {
			fatalf("bench: %v", err)
		}
		return
	}
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "quantbench: -compare needs two report paths: old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *tol); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}

	if *list {
		titles := harness.Titles()
		for _, id := range harness.AllExperiments() {
			fmt.Printf("%-12s %s\n", id, titles[id])
		}
		return
	}

	opts := harness.Options{N: *n, Seed: *seed, Repeats: *repeats}
	if *verify {
		results := harness.Verify(opts)
		fmt.Print(harness.RenderVerify(results))
		for _, r := range results {
			if !r.OK {
				os.Exit(1)
			}
		}
		return
	}
	var exps []string
	switch {
	case *all:
		exps = harness.AllExperiments()
	case *exp != "":
		exps = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "quantbench: pass -exp <id>, -all, or -list")
		os.Exit(2)
	}

	if *format == "markdown" {
		fmt.Print(markdownHeader(opts))
	}
	var sections []harness.HTMLSection
	for _, id := range exps {
		results := harness.Run(id, opts)
		harness.SortResults(results)
		switch *format {
		case "table":
			fmt.Printf("== %s ==\n%s\n", harness.Titles()[id], harness.RenderTable(id, results))
		case "csv":
			fmt.Print(harness.RenderCSV(results))
		case "markdown":
			fmt.Print(markdownSection(id, results))
		case "html":
			sections = append(sections, harness.HTMLSection{Exp: id, Results: results})
		default:
			fmt.Fprintf(os.Stderr, "quantbench: unknown format %q\n", *format)
			os.Exit(2)
		}
	}
	if *format == "html" {
		n := opts.N
		if n == 0 {
			n = 200000
		}
		subtitle := fmt.Sprintf("Every table and figure of the paper's §4, measured by this reproduction at n = %d (paper scale: 10^7–10^10). Regenerate: go run ./cmd/quantbench -all -format html -n <n>.", n)
		fmt.Print(harness.RenderHTMLPage(sections, subtitle))
	}
}

func markdownHeader(o harness.Options) string {
	n := o.N
	if n == 0 {
		n = 200000
	}
	args := append([]string{"quantbench"}, os.Args[1:]...)
	return fmt.Sprintf(`# EXPERIMENTS — paper vs. measured

Generated by %s.

Every table and figure of the paper's evaluation section (§4) has a
driver here. The paper ran on a 2013-era 3 GHz server with streams of
10^7–10^10 elements; this report uses n = %d (rerun with
`+"`go run ./cmd/quantbench -all -n <paper scale>`"+` for larger streams).
Absolute numbers therefore differ; the *shape* statements quoted from the
paper under each experiment are what the reproduction is expected to —
and does — preserve.

`, strings.Join(args, " "), n)
}

func markdownSection(id string, results []harness.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", harness.Titles()[id])
	fmt.Fprintf(&b, "**Paper:** %s\n\n", harness.PaperExpectations()[id])
	fmt.Fprintf(&b, "**Measured:**\n\n```\n%s```\n\n", harness.RenderTable(id, results))
	if note := harness.ReproductionNotes()[id]; note != "" {
		fmt.Fprintf(&b, "**Note:** %s\n\n", note)
	}
	return b.String()
}
