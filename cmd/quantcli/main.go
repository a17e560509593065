// Command quantcli summarizes a stream of numbers from stdin (one per
// line) with any of the library's algorithms and prints the requested
// quantiles — a practical end-to-end exercise of the public API.
//
// Usage:
//
//	quantgen -dist mpcat -n 1000000 | quantcli -algo gkarray -q 0.5,0.95,0.99
//	quantcli -algo dcs -bits 32 -eps 0.001 < values.txt
//	quantcli -algo random -report   # ε, n, space and default quantiles
//
// Durable ingestion runs through the checkpoint subcommands:
//
//	quantcli save -dir /tmp/ck -algo gkarray -every 100000 < values.txt
//	quantcli load -dir /tmp/ck -q 0.5,0.99      # query the last checkpoint
//	quantcli resume -dir /tmp/ck < more.txt     # continue a killed run
//
// save ingests while publishing a checkpoint every -every elements (and
// one at EOF); a run killed mid-stream loses at most the elements since
// the last published generation. resume recovers the newest valid
// checkpoint — the stored label says which algorithm to rebuild — and
// continues ingesting with the same cadence. load only queries.
//
// Negative lines prefixed with "-" in -turnstile mode are deletions.
package main

import (
	"bufio"
	"encoding"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	sq "streamquantiles"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "save":
			os.Exit(runSave(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
		case "load":
			os.Exit(runLoad(os.Args[2:], os.Stdout, os.Stderr))
		case "resume":
			os.Exit(runResume(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
		}
	}
	var (
		algo      = flag.String("algo", "gkarray", "gkadaptive, gktheory, gkarray, qdigest, mrl99, random, kll, drss, dcm, dcs")
		eps       = flag.Float64("eps", 0.01, "error parameter ε")
		bits      = flag.Int("bits", 32, "universe bits (fixed-universe algorithms)")
		seed      = flag.Uint64("seed", 1, "seed for randomized algorithms")
		qs        = flag.String("q", "0.01,0.25,0.5,0.75,0.99", "comma-separated quantile fractions")
		turnstile = flag.Bool("turnstile", false, "treat lines starting with '-' as deletions (dcm/dcs/drss only)")
		report    = flag.Bool("report", false, "also print n and space usage")
	)
	flag.Parse()

	cash, turn, err := build(*algo, *eps, *bits, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantcli: %v\n", err)
		os.Exit(2)
	}
	if *turnstile && turn == nil {
		fmt.Fprintln(os.Stderr, "quantcli: -turnstile requires a turnstile algorithm")
		os.Exit(2)
	}

	if err := process(os.Stdin, cash, turn, *turnstile); err != nil {
		fmt.Fprintf(os.Stderr, "quantcli: %v\n", err)
		os.Exit(1)
	}

	var s sq.Summary
	if turn != nil {
		s = turn
	} else {
		s = cash
	}
	if code := printResults(os.Stdout, os.Stderr, s, *algo, *eps, *qs, *report); code != 0 {
		os.Exit(code)
	}
}

// runSave is the "save" subcommand: ingest stdin with periodic durable
// checkpoints, then print quantiles.
func runSave(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quantcli save", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo      = fs.String("algo", "gkarray", "algorithm to run (must have a binary codec)")
		eps       = fs.Float64("eps", 0.01, "error parameter ε")
		bits      = fs.Int("bits", 32, "universe bits (fixed-universe algorithms)")
		seed      = fs.Uint64("seed", 1, "seed for randomized algorithms")
		dir       = fs.String("dir", "", "checkpoint directory (required)")
		every     = fs.Int("every", 100000, "checkpoint every N accepted elements (0 = only at EOF)")
		qs        = fs.String("q", "0.01,0.25,0.5,0.75,0.99", "comma-separated quantile fractions")
		turnstile = fs.Bool("turnstile", false, "treat lines starting with '-' as deletions")
		report    = fs.Bool("report", false, "also print n and space usage")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "quantcli save: -dir is required")
		return 2
	}
	cash, turn, err := build(*algo, *eps, *bits, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "quantcli save: %v\n", err)
		return 2
	}
	if *turnstile && turn == nil {
		fmt.Fprintln(stderr, "quantcli save: -turnstile requires a turnstile algorithm")
		return 2
	}
	label := strings.ToLower(*algo)
	return ingestCheckpointed(stdin, stdout, stderr, cash, turn, *turnstile, *dir, label, *every, *eps, *qs, *report)
}

// runResume is the "resume" subcommand: recover the newest valid
// checkpoint (the stored label identifies the algorithm), continue
// ingesting stdin with the same checkpoint cadence, and print quantiles.
func runResume(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quantcli resume", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", "", "checkpoint directory (required)")
		every     = fs.Int("every", 100000, "checkpoint every N accepted elements (0 = only at EOF)")
		qs        = fs.String("q", "0.01,0.25,0.5,0.75,0.99", "comma-separated quantile fractions")
		turnstile = fs.Bool("turnstile", false, "treat lines starting with '-' as deletions")
		report    = fs.Bool("report", false, "also print n and space usage")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "quantcli resume: -dir is required")
		return 2
	}
	cash, turn, label, code := recoverFrom(*dir, stderr)
	if code != 0 {
		return code
	}
	if *turnstile && turn == nil {
		fmt.Fprintln(stderr, "quantcli resume: -turnstile requires a turnstile checkpoint")
		return 2
	}
	return ingestCheckpointed(stdin, stdout, stderr, cash, turn, *turnstile, *dir, label, *every, 0, *qs, *report)
}

// runLoad is the "load" subcommand: recover the newest valid checkpoint
// and print quantiles without ingesting anything.
func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quantcli load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir    = fs.String("dir", "", "checkpoint directory (required)")
		qs     = fs.String("q", "0.01,0.25,0.5,0.75,0.99", "comma-separated quantile fractions")
		report = fs.Bool("report", false, "also print n and space usage")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "quantcli load: -dir is required")
		return 2
	}
	cash, turn, label, code := recoverFrom(*dir, stderr)
	if code != 0 {
		return code
	}
	var s sq.Summary
	if turn != nil {
		s = turn
	} else {
		s = cash
	}
	return printResults(stdout, stderr, s, label, 0, *qs, *report)
}

// recoverFrom loads the newest valid checkpoint in dir, rebuilding the
// summary named by the stored label. The construction parameters are
// placeholders: every codec replaces the full state, ε and seeds
// included. Skipped generations are reported on stderr, as is the
// recovery wall time with the per-candidate decode timing the report
// carries.
func recoverFrom(dir string, stderr io.Writer) (sq.CashRegister, sq.Turnstile, string, int) {
	var gotLabel string
	start := time.Now()
	target, report, err := sq.RecoverCheckpointFunc(dir, func(label string) (encoding.BinaryUnmarshaler, error) {
		cash, turn, err := build(label, 0.01, 32, 1)
		if err != nil {
			return nil, fmt.Errorf("checkpoint label: %w", err)
		}
		gotLabel = label
		if turn != nil {
			return turn.(encoding.BinaryUnmarshaler), nil
		}
		m, ok := cash.(encoding.BinaryUnmarshaler)
		if !ok {
			return nil, fmt.Errorf("algorithm %q has no binary codec", label)
		}
		return m, nil
	})
	elapsed := time.Since(start)
	if report != nil {
		for _, skip := range report.Skipped {
			fmt.Fprintf(stderr, "quantcli: skipped checkpoint %s: %s\n", skip.File, skip.Reason)
		}
		for _, cand := range report.Candidates {
			status := "rejected"
			if cand.Loaded {
				status = "loaded"
			}
			fmt.Fprintf(stderr, "quantcli: candidate %s (generation %d): decode %v, %s\n",
				cand.File, cand.Generation, cand.Decode, status)
		}
	}
	if err != nil {
		if errors.Is(err, sq.ErrNoCheckpoint) {
			fmt.Fprintf(stderr, "quantcli: no usable checkpoint in %s\n", dir)
		} else {
			fmt.Fprintf(stderr, "quantcli: %v\n", err)
		}
		return nil, nil, "", 1
	}
	fmt.Fprintf(stderr, "quantcli: recovered generation %d in %v\n", report.Generation, elapsed)
	switch s := target.(type) {
	case sq.Turnstile:
		return nil, s, gotLabel, 0
	case sq.CashRegister:
		return s, nil, gotLabel, 0
	default:
		fmt.Fprintf(stderr, "quantcli: recovered %T is not a summary\n", target)
		return nil, nil, "", 1
	}
}

// ingestCheckpointed runs the durable ingest loop shared by save and
// resume: the summary goes behind its goroutine-safe wrapper, a
// checkpoint is published every `every` accepted elements and once more
// at EOF, and the requested quantiles are printed. A crash between
// checkpoints loses at most `every` elements; resume restarts from the
// newest published generation.
func ingestCheckpointed(stdin io.Reader, stdout, stderr io.Writer, cash sq.CashRegister, turn sq.Turnstile, turnstile bool, dir, label string, every int, eps float64, qs string, report bool) int {
	ck, err := sq.OpenCheckpointDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "quantcli: %v\n", err)
		return 1
	}
	var s sq.Summary
	var save func() error
	var saves int
	var saveWall time.Duration
	timed := func(do func() (uint64, error)) error {
		start := time.Now()
		_, err := do()
		if err == nil {
			saves++
			saveWall += time.Since(start)
		}
		return err
	}
	if turn != nil {
		w := sq.NewSafeTurnstile(turn)
		turn, s = w, w
		save = func() error { return timed(func() (uint64, error) { return w.Checkpoint(ck, label) }) }
	} else {
		w := sq.NewSafeCashRegister(cash)
		cash, s = w, w
		save = func() error { return timed(func() (uint64, error) { return w.Checkpoint(ck, label) }) }
	}
	if err := processEvery(stdin, cash, turn, turnstile, every, save); err != nil {
		fmt.Fprintf(stderr, "quantcli: %v\n", err)
		return 1
	}
	if s.Count() > 0 {
		if err := save(); err != nil {
			fmt.Fprintf(stderr, "quantcli: final checkpoint: %v\n", err)
			return 1
		}
	}
	if saves > 0 {
		fmt.Fprintf(stderr, "quantcli: %d checkpoint save(s) in %v total (%v avg)\n",
			saves, saveWall, saveWall/time.Duration(saves))
	}
	return printResults(stdout, stderr, s, label, eps, qs, report)
}

// printResults emits the report line and the requested quantiles.
func printResults(stdout, stderr io.Writer, s sq.Summary, algo string, eps float64, qs string, report bool) int {
	if s.Count() == 0 {
		fmt.Fprintln(stderr, "quantcli: empty input")
		return 1
	}
	if report {
		fmt.Fprintf(stdout, "algorithm=%s eps=%g n=%d space=%dB\n", algo, eps, s.Count(), s.SpaceBytes())
	}
	for _, field := range strings.Split(qs, ",") {
		phi, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || phi <= 0 || phi >= 1 {
			fmt.Fprintf(stderr, "quantcli: bad quantile fraction %q\n", field)
			return 2
		}
		fmt.Fprintf(stdout, "q%.4g\t%d\n", phi, s.Quantile(phi))
	}
	return 0
}

// process feeds newline-separated decimal values from r into the
// summary; in turnstile mode a leading '-' marks a deletion.
func process(r io.Reader, cash sq.CashRegister, turn sq.Turnstile, turnstile bool) error {
	return processEvery(r, cash, turn, turnstile, 0, nil)
}

// processEvery is process with a durability hook: ckpt runs after every
// `every` accepted elements (0 disables).
func processEvery(r io.Reader, cash sq.CashRegister, turn sq.Turnstile, turnstile bool, every int, ckpt func() error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line, accepted := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		del := false
		if turnstile && strings.HasPrefix(text, "-") {
			del = true
			text = text[1:]
		}
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		switch {
		case del:
			turn.Delete(v)
		case turn != nil:
			turn.Insert(v)
		default:
			cash.Update(v)
		}
		accepted++
		if every > 0 && accepted%every == 0 {
			if err := ckpt(); err != nil {
				return fmt.Errorf("checkpoint after %d elements: %w", accepted, err)
			}
		}
	}
	return sc.Err()
}

// build constructs the requested summary; exactly one of the returns is
// non-nil besides the error.
func build(algo string, eps float64, bits int, seed uint64) (sq.CashRegister, sq.Turnstile, error) {
	switch strings.ToLower(algo) {
	case "gkadaptive":
		return sq.NewGKAdaptive(eps), nil, nil
	case "gktheory":
		return sq.NewGKTheory(eps), nil, nil
	case "gkarray":
		return sq.NewGKArray(eps), nil, nil
	case "qdigest":
		return sq.NewQDigest(eps, bits), nil, nil
	case "mrl99":
		return sq.NewMRL99(eps, seed), nil, nil
	case "random":
		return sq.NewRandom(eps, seed), nil, nil
	case "kll":
		return sq.NewKLL(eps, seed), nil, nil
	case "dcm":
		return nil, sq.NewDCM(eps, bits, sq.DyadicConfig{Seed: seed}), nil
	case "dcs":
		return nil, sq.NewDCS(eps, bits, sq.DyadicConfig{Seed: seed}), nil
	case "drss":
		return nil, sq.NewDRSS(eps, bits, sq.DyadicConfig{Seed: seed}), nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}
