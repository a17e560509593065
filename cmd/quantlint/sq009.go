// SQ009 — columnar layout in the struct-of-arrays summary packages.
// It is a rule because no test sees a layout: an array-of-structs
// table answers every query correctly and only costs stride.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
)

// sq009ColumnarPkgs are the summary packages whose tuple state moved to
// struct-of-arrays columns (DESIGN.md "Memory layout"): gaps/dels in
// gk.tcols, the flat level arenas of kll and mrl, the prefix-weight
// columns of qdigest. A `[]T` over an all-numeric struct reintroduces
// the interleaved layout the refactor removed, so it is flagged here
// before it can grow back.
var sq009ColumnarPkgs = []string{
	"internal/gk", "internal/kll", "internal/mrl", "internal/qdigest",
}

// sq009NumericTypes are the field types that make a struct a plain
// numeric tuple. Pointers, slices, strings or named types disqualify:
// such structs are nodes or handles, not rows of a table.
var sq009NumericTypes = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"float32": true, "float64": true, "byte": true, "rune": true, "uintptr": true,
}

// checkSQ009 flags, in the columnar packages, any slice type `[]T`
// where T is a package-declared struct of three or more all-numeric
// fields: a table of ≥3 parallel numeric columns belongs in column
// slices (8-byte strides on the one or two columns a sweep touches),
// not in an interleaved array of structs. Two-field structs stay legal
// — a value-weight pair (core.WeightedValue) is an exchange format, not
// a table — as do structs holding pointers or slices.
func (l *linter) checkSQ009() {
	for _, p := range l.pkgs {
		if !exempt(p.rel, sq009ColumnarPkgs) {
			continue
		}
		tuples := numericTupleStructs(p)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				at, ok := n.(*ast.ArrayType)
				if !ok || at.Len != nil {
					return true
				}
				if id, ok := at.Elt.(*ast.Ident); ok && tuples[id.Name] {
					l.report(at.Pos(), "SQ009", fmt.Sprintf(
						"[]%s interleaves %s's all-numeric tuple fields: columnar packages store parallel column slices (see gk.tcols), not arrays of structs", id.Name, id.Name))
				}
				return true
			})
		}
	}
}

// numericTupleStructs collects the package's struct types with three or
// more fields, all of builtin numeric type.
func numericTupleStructs(p *pkgInfo) map[string]bool {
	set := map[string]bool{}
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
				fields, numeric := 0, true
				for _, fl := range st.Fields.List {
					id, ok := fl.Type.(*ast.Ident)
					if !ok || !sq009NumericTypes[id.Name] {
						numeric = false
						break
					}
					if n := len(fl.Names); n > 0 {
						fields += n
					} else {
						fields++
					}
				}
				if numeric && fields >= 3 {
					set[ts.Name.Name] = true
				}
			}
		}
	}
	return set
}
