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

		ingest     = flag.Bool("ingest", false, "measure batched vs per-item ingestion and sharded scaling")
		ingestBat  = flag.Int("ingest-batch", 4096, "batch size for -ingest")
		ingestRuns = flag.Int("ingest-runs", 1, "measurement passes for -ingest; >1 keeps the conservative merge (baselines)")
		ingestOut  = flag.String("ingest-out", "", "write the -ingest JSON report here (default stdout)")
		ingestCmp  = flag.Bool("ingest-compare", false, "compare two ingest reports: quantbench -ingest-compare old.json new.json")
		ingestTol  = flag.Float64("ingest-tol", 0.25, "allowed fractional batch-speedup regression for -ingest-compare")

		parallel     = flag.Bool("parallel", false, "measure writer-handle scaling across writer counts (1/2/4/NumCPU)")
		parallelRuns = flag.Int("parallel-runs", 1, "measurement passes for -parallel; >1 keeps the conservative merge (baselines)")
		parallelOut  = flag.String("parallel-out", "", "write the -parallel JSON report here (default stdout)")
		parallelCmp  = flag.Bool("parallel-compare", false, "compare two parallel reports: quantbench -parallel-compare old.json new.json")
		parallelTol  = flag.Float64("parallel-tol", 0.25, "allowed fractional efficiency regression for -parallel-compare")

		ckpt     = flag.Bool("checkpoint", false, "measure sharded save/recover scaling across fan-out worker counts (1/4/16/64)")
		ckptRuns = flag.Int("checkpoint-runs", 1, "measurement passes for -checkpoint; >1 keeps the conservative merge (baselines)")
		ckptOut  = flag.String("checkpoint-out", "", "write the -checkpoint JSON report here (default stdout)")
		ckptCmp  = flag.Bool("checkpoint-compare", false, "compare two checkpoint reports: quantbench -checkpoint-compare old.json new.json")
		ckptTol  = flag.Float64("checkpoint-tol", 0.25, "allowed fractional efficiency regression for -checkpoint-compare")

		cpus         = flag.Int("cpus", 0, "pin GOMAXPROCS for the run (0 = leave as is); reports record the effective value")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile of the measurement here")
		blockProfile = flag.String("blockprofile", "", "write a blocking profile of the measurement here")

		query     = flag.Bool("query", false, "measure per-phi vs batched vs snapshot-cached quantile extraction")
		queryPhis = flag.Int("query-phis", 100, "fractions per extraction for -query")
		queryRuns = flag.Int("query-runs", 1, "measurement passes for -query; >1 keeps the conservative merge (baselines)")
		queryOut  = flag.String("query-out", "", "write the -query JSON report here (default stdout)")
		queryCmp  = flag.Bool("query-compare", false, "compare two query reports: quantbench -query-compare old.json new.json")
		queryTol  = flag.Float64("query-tol", 0.25, "allowed fractional speedup regression for -query-compare")
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

	if *ingest {
		runIngest(*n, *ingestBat, *ingestRuns, *ingestOut)
		return
	}
	if *parallel {
		runParallel(*n, *parallelRuns, *parallelOut)
		return
	}
	if *parallelCmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "quantbench: -parallel-compare needs two report paths: old.json new.json")
			os.Exit(2)
		}
		runParallelCompare(flag.Arg(0), flag.Arg(1), *parallelTol)
		return
	}
	if *ckpt {
		runCheckpoint(*n, *ckptRuns, *ckptOut)
		return
	}
	if *ckptCmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "quantbench: -checkpoint-compare needs two report paths: old.json new.json")
			os.Exit(2)
		}
		runCheckpointCompare(flag.Arg(0), flag.Arg(1), *ckptTol)
		return
	}
	if *ingestCmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "quantbench: -ingest-compare needs two report paths: old.json new.json")
			os.Exit(2)
		}
		runIngestCompare(flag.Arg(0), flag.Arg(1), *ingestTol)
		return
	}
	if *query {
		runQuery(*n, *queryPhis, *queryRuns, *queryOut)
		return
	}
	if *queryCmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "quantbench: -query-compare needs two report paths: old.json new.json")
			os.Exit(2)
		}
		runQueryCompare(flag.Arg(0), flag.Arg(1), *queryTol)
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
