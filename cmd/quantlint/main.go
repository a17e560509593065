// Command quantlint is the repo's static analyzer: numbered rules
// encoding the invariants this codebase relies on but generic linters
// cannot know, and no test can observe. All are pure-syntax passes:
// seeded-randomness discipline (SQ001), float comparison hygiene
// (SQ002), panic-free hot paths (SQ003), the internal/ layering (SQ004),
// the decode-path hardening contract — no panics, no input-sized
// allocations without a guard — behind durable checkpoint recovery
// (SQ006), columnar storage in the struct-of-arrays summary packages
// (SQ009), ε-budget propagation through Merge implementations (SQ012),
// no package-level atomics on the sharded write path (SQ014), and the
// checkpoint fan-out discipline (SQ015). Properties a test or the type
// system pins (the Invariants contract, codec parity, hot-path
// allocations, pool pairing, the shard pad, the shard lock discipline)
// are left to them. Run `quantlint -rules` for the catalog.
//
// Usage:
//
//	quantlint [-strict] [-rules] [packages...]
//
// Packages follow the go tool's pattern shape (a directory, or dir/...
// for a recursive walk); the default is ./... from the current
// directory. Findings can be suppressed in place with a trailing or
// preceding comment naming one rule or a comma list:
//
//	//lint:ignore SQ003 reason the panic is part of the documented contract
//	//lint:ignore SQ002,SQ003 reason one waiver, two rules
//
// -strict additionally prints the suppressed findings, inventorying
// every ignore in the tree; the exit status still reflects only
// unsuppressed findings, so a tree whose every finding is waived stays
// green while the waivers stay visible. Exit status: 0 when clean, 1 on
// unsuppressed findings, 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	strict := flag.Bool("strict", false, "also report findings suppressed by //lint:ignore")
	listRules := flag.Bool("rules", false, "print the rule catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: quantlint [-strict] [-rules] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range ruleTable {
			fmt.Printf("%s  %s\n", r.id, r.doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	base, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantlint: %v\n", err)
		os.Exit(2)
	}
	all, err := lint(base, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantlint: %v\n", err)
		os.Exit(2)
	}

	active := 0
	for _, f := range all {
		if !f.Suppressed {
			active++
		}
		if !f.Suppressed || *strict {
			fmt.Println(f)
		}
	}
	if active > 0 {
		os.Exit(1)
	}
}
