// SQ014 — write-path memory placement in the sharded containers.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
)

// sq014Pkgs are the packages whose hot write-path state is placed for
// multi-core scaling (DESIGN.md "Write-path concurrency and memory
// placement"): per-shard locks and epochs live in cache-line padded
// structs so P writers on P cores never false-share, and shared atomic
// cursors are isolated between blank pads inside a container, never
// package-level.
var sq014Pkgs = []string{"internal/sharded"}

// checkSQ014 enforces the placement discipline in two shapes:
//
//   - a package-declared struct carrying hot shared mutable fields (a
//     sync.Mutex/RWMutex or any sync/atomic type) that is stored by
//     value in a slice (`[]T` anywhere in the package) must carry a
//     blank fixed-size-array pad field (`_ [N]byte`): without one,
//     adjacent elements share cache lines and every uncontended
//     lock/atomic op still ping-pongs the neighbours' lines (see
//     sharded.shard and TestShardStructsPadded). Slices of pointers are
//     exempt — the elements are separate allocations;
//   - no package-level atomic variables: a file-scope atomic is shared
//     hot state every writer in the process hits with no way to pad or
//     shard it. Counters belong inside a container (isolated between
//     blank pads, like the round-robin cursor) or in per-writer
//     handles.
func (l *linter) checkSQ014() {
	for _, p := range l.pkgs {
		if !exempt(p.rel, sq014Pkgs) {
			continue
		}
		hot, padded := sq014Structs(p)
		reported := map[string]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				at, ok := n.(*ast.ArrayType)
				if !ok {
					return true
				}
				id, ok := at.Elt.(*ast.Ident)
				if !ok || !hot[id.Name] || padded[id.Name] || reported[id.Name] {
					return true
				}
				reported[id.Name] = true
				l.report(at.Pos(), "SQ014", fmt.Sprintf(
					"%s holds hot shared mutable fields (mutex/atomic) and is stored by value in a slice without cache-line padding: adjacent elements false-share; add a blank `_ [N]byte` pad rounding the struct to a line multiple (see sharded.shard)", id.Name))
				return true
			})
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

// sq014Structs classifies the package's struct types: hot (carrying a
// mutex or atomic field) and padded (carrying a blank fixed-size-array
// field).
func sq014Structs(p *pkgInfo) (hot, padded map[string]bool) {
	hot, padded = map[string]bool{}, map[string]bool{}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, fl := range st.Fields.List {
					if sq014HotType(fl.Type) {
						hot[ts.Name.Name] = true
					}
					if at, ok := fl.Type.(*ast.ArrayType); ok && at.Len != nil &&
						len(fl.Names) == 1 && fl.Names[0].Name == "_" {
						padded[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return hot, padded
}

// sq014HotType reports whether a field type is contended shared state:
// sync.Mutex/RWMutex or anything from sync/atomic (atomic.Pointer[T]
// arrives as an index expression over the selector).
func sq014HotType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.SelectorExpr:
		id, ok := t.X.(*ast.Ident)
		if !ok {
			return false
		}
		if id.Name == "sync" && (t.Sel.Name == "Mutex" || t.Sel.Name == "RWMutex") {
			return true
		}
		return id.Name == "atomic"
	case *ast.IndexExpr:
		return sq014HotType(t.X)
	}
	return false
}

// sq014AtomicType reports whether a declared variable type is a
// sync/atomic type.
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
