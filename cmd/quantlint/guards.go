// The guarded-by annotation table that feeds the lock rules
// (SQ010/SQ011):
//
//	type wrapper struct {
//		mu sync.Mutex
//		s  Summary // guarded by mu
//	}
//
// A field's trailing (or doc) comment starting `guarded by <name>`
// binds it to a sibling mutex field of the same struct: every read or
// write of the field must then hold that mutex. The grammar is
// deliberately exact-match (a comment line must start with "guarded
// by") so prose comments cannot accidentally annotate.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// guardTable maps one package's annotated objects.
type guardTable struct {
	// fields: annotated struct field -> name of the sibling mutex field
	// guarding it.
	fields map[types.Object]string
	// bad collects malformed annotations (unknown sibling, non-mutex
	// guard); they surface as SQ010 findings so typos cannot silently
	// disable checking.
	bad []pendingFinding
}

// pendingFinding is a position+message pair a memoized analysis hands
// back to its reporting rule.
type pendingFinding struct {
	pos token.Pos
	msg string
}

// guardedByField extracts the guard name from a field's comments, or "".
func guardedByField(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Comment, f.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "guarded by ")
			if !ok {
				continue
			}
			name := strings.Fields(rest)
			if len(name) > 0 {
				return name[0]
			}
		}
	}
	return ""
}

// buildGuardTable scans one package's struct declarations for
// annotations, resolving names through the typed pass.
func buildGuardTable(p *pkgInfo, ti *typeInfo) *guardTable {
	gt := &guardTable{fields: map[types.Object]string{}}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				guard := guardedByField(field)
				if guard == "" || len(field.Names) == 0 {
					continue
				}
				sibling := structFieldNamed(st, guard)
				switch {
				case sibling == nil:
					gt.bad = append(gt.bad, pendingFinding{field.Pos(), fmt.Sprintf(
						"`guarded by %s` names no sibling field in this struct: the guard must be a mutex declared alongside the guarded field", guard)})
					continue
				case !isMutexField(sibling, ti):
					gt.bad = append(gt.bad, pendingFinding{field.Pos(), fmt.Sprintf(
						"`guarded by %s` names a non-mutex field: the guard must be a sync.Mutex or sync.RWMutex", guard)})
					continue
				}
				for _, name := range field.Names {
					if obj := ti.info.Defs[name]; obj != nil {
						gt.fields[obj] = guard
					}
				}
			}
			return true
		})
	}
	return gt
}

// structFieldNamed finds the field of st declaring name.
func structFieldNamed(st *ast.StructType, name string) *ast.Field {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return f
			}
		}
	}
	return nil
}

// isMutexField reports whether the field's type is sync.Mutex or
// sync.RWMutex (typed when possible, syntactic as fallback).
func isMutexField(f *ast.Field, ti *typeInfo) bool {
	if t := ti.typeOf(f.Type); t != nil {
		return isMutexType(t)
	}
	sel, ok := f.Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
