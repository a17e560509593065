// SQ014 — no package-level atomics on the sharded write path. It is a
// rule because a file-scope counter is correct under every test and
// only costs contention.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
)

// sq014Pkgs are the packages whose hot write-path state is placed for
// multi-core scaling (DESIGN.md "Write-path concurrency and memory
// placement"): shared atomic cursors are isolated between blank pads
// inside a container, never package-level.
var sq014Pkgs = []string{"internal/sharded"}

// checkSQ014 flags package-level atomic variables in the scoped
// packages: a file-scope atomic is shared hot state every writer in the
// process hits with no way to pad or shard it. Counters belong inside a
// container (isolated between blank pads, like the round-robin cursor)
// or in per-writer handles.
func (l *linter) checkSQ014() {
	for _, p := range l.pkgs {
		if !exempt(p.rel, sq014Pkgs) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || vs.Type == nil || !sq014AtomicType(vs.Type) {
						continue
					}
					for _, name := range vs.Names {
						l.report(name.Pos(), "SQ014", fmt.Sprintf(
							"package-level atomic %s is shared hot state on the write path with no way to pad or shard it: move it into a container field isolated between blank pads (see the round-robin cursor) or into per-writer handles", name.Name))
					}
				}
			}
		}
	}
}

// sq014AtomicType reports whether a declared variable type is a
// sync/atomic type (atomic.Pointer[T] arrives as an index expression
// over the selector).
func sq014AtomicType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.SelectorExpr:
		id, ok := t.X.(*ast.Ident)
		return ok && id.Name == "atomic"
	case *ast.IndexExpr:
		return sq014AtomicType(t.X)
	}
	return false
}
