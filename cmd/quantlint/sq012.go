// SQ012 — ε-budget propagation through merges.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkSQ012 audits Merge implementations in algorithm packages for the
// two ways an error budget silently goes wrong:
//
//   - the result's eps is COPIED from one operand (`out.eps = a.eps`,
//     `&T{eps: other.eps}`): when the operands ever disagree, the merged
//     summary understates its error by the difference. The merged
//     budget must be derived — max(a.eps, b.eps) for same-budget
//     merges, or a documented additive rule (core.SumEps) for sketches
//     whose guarantees add;
//   - the result's eps is a FRESH literal (`&T{eps: 0.01}`): the budget
//     is restated instead of propagated, and drifts the first time a
//     caller constructs operands with a different eps.
//
// Anything else — max/min calls, helper calls, arithmetic over both
// operands — passes: the rule forces the derivation to be explicit, not
// a particular formula. "Merge implementation" means a function or
// method whose name contains "merge" (case-insensitive) in an
// internal/* package; the harness is exempt as tooling. The check is
// purely syntactic: any field named eps or epsilon counts as a budget.
func (l *linter) checkSQ012() {
	for _, p := range l.pkgs {
		if !isInternalPkg(p) || under(p.rel, "internal/harness") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !strings.Contains(strings.ToLower(fd.Name.Name), "merge") {
					continue
				}
				l.auditMergeEps(fd)
			}
		}
	}
}

// auditMergeEps walks one merge body for eps assignments and
// composite-literal fields whose right side copies or restates a
// budget.
func (l *linter) auditMergeEps(fd *ast.FuncDecl) {
	name := fd.Name.Name
	flag := func(pos token.Pos, rhs ast.Expr) {
		switch r := rhs.(type) {
		case *ast.SelectorExpr:
			if isEpsName(r.Sel.Name) {
				l.report(pos, "SQ012", fmt.Sprintf(
					"merge result eps copied from %s in %s: derive the merged budget (max of the operands, or a documented additive rule), never inherit one side's", types.ExprString(r), name))
			}
		case *ast.BasicLit:
			l.report(pos, "SQ012", fmt.Sprintf(
				"merge result eps set to literal %s in %s: the merged budget must be derived from the operands, not restated as a constant", r.Value, name))
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || !isEpsName(sel.Sel.Name) {
					continue
				}
				flag(n.Rhs[i].Pos(), n.Rhs[i])
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !isEpsName(key.Name) {
					continue
				}
				flag(kv.Value.Pos(), kv.Value)
			}
		}
		return true
	})
}

// isEpsName matches the error-budget field names (eps, epsilon,
// case-insensitive).
func isEpsName(name string) bool {
	return strings.EqualFold(name, "eps") || strings.EqualFold(name, "epsilon")
}
