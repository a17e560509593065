// The rule registry and the syntactic helpers shared across rules.
// Each rule lives in its own sqNNN.go analyzer unit; they share the
// engine (lint.go).
package main

import "strings"

// ruleInfo is one registered analyzer: its id, a one-line contract for
// `-rules`, and the pass over the loaded packages.
type ruleInfo struct {
	id  string
	doc string
	run func(*linter)
}

// ruleTable is the ordered rule catalog. Ids are stable: a retired
// rule's number is never reused, so every //lint:ignore keeps meaning
// what it said. SQ005, SQ007, SQ008 and SQ013 were retired for the
// tests that pin the same properties (README "Correctness tooling").
// SQ010 (guarded-by discipline) and SQ011 (unlock-path soundness) were
// retired when the shard state moved into internal/sharded/cell, whose
// unexported fields and deferred-unlock accessors make the compiler
// enforce what the two rules checked.
// SQ000 (malformed //lint:ignore directive) is a pseudo-rule emitted by
// the engine itself while indexing directives, so it does not appear
// here.
var ruleTable = []ruleInfo{
	{"SQ001", "algorithm packages must not import math/rand or crypto/rand or call time.Now(): randomness flows through internal/xhash seeds, timing through the harness", (*linter).checkSQ001},
	{"SQ002", "no ==/!= between float64 expressions: compare with a tolerance or math.Float64bits", (*linter).checkSQ002},
	{"SQ003", "panic stays out of hot paths: New*/check* helpers only, plus the documented panic(ErrEmpty) contract", (*linter).checkSQ003},
	{"SQ004", "layering: internal/* never imports the harness, cmd/*, or the root package", (*linter).checkSQ004},
	{"SQ006", "decode paths in internal/* never panic and never let the encoded input size an allocation without a bounding comparison", (*linter).checkSQ006},
	{"SQ009", "memory layout: no []T over all-numeric tuple structs in the columnar packages", (*linter).checkSQ009},
	{"SQ012", "eps-budget propagation: a Merge implementation must derive the result eps via max/documented additive helpers, never copy one operand's eps or a fresh literal", (*linter).checkSQ012},
	{"SQ014", "memory placement: no package-level atomics on the internal/sharded write path", (*linter).checkSQ014},
	{"SQ015", "fan-out discipline: goroutine spawns in internal/sharded and internal/checkpoint bound loop fan-out by runtime.GOMAXPROCS, join every spawn with a deferred Wait in the spawning function, and never discard a worker's error", (*linter).checkSQ015},
}

// isInternalPkg reports whether p is an algorithm-side package, i.e.
// lives under internal/ of its module.
func isInternalPkg(p *pkgInfo) bool {
	return p.rel == "internal" || strings.HasPrefix(p.rel, "internal/")
}

// under reports whether rel is the package prefix or below it.
func under(rel, prefix string) bool {
	return rel == prefix || strings.HasPrefix(rel, prefix+"/")
}

func exempt(rel string, list []string) bool {
	for _, e := range list {
		if under(rel, e) {
			return true
		}
	}
	return false
}
