// SQ015 — fan-out discipline in the parallel checkpoint paths.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
)

// sq015Pkgs are the packages on the save/recover path (DESIGN.md
// "Checkpoint parallelism"). Only the sharded containers' worker pool
// spawns goroutines there; a fan-out runs while a caller holds
// topology locks and while shard locks are taken and released per
// worker, so the discipline is strict — see fanout
// (internal/sharded/parallel.go) for the reference shape.
var sq015Pkgs = []string{"internal/sharded", "internal/checkpoint"}

// checkSQ015 audits every goroutine spawn in the scoped packages for
// three shapes:
//
//   - a `go` inside a for/range loop in a function that never consults
//     runtime.GOMAXPROCS: the spawn count then tracks the input (shard
//     count, candidate count) instead of the machine, and a 64-shard
//     save on a 1-core box would thrash 64 goroutines through one core;
//   - a spawn in a function with no deferred `.Wait()`: the deferred
//     join runs on every path out, a panic included, so no worker can
//     outlive the topology lock its caller holds and touch freed shard
//     state;
//   - `_ = f(...)` inside the spawned closure: a worker's error must
//     land in a per-index slot (or a channel) and the first failure
//     propagate after the join, never be dropped on the floor.
//
// Like SQ006, the checks are syntactic evidence of attention —
// internal/sharded's parallel_test.go, the crash matrix and the
// race-mode property tests prove the behaviour.
func (l *linter) checkSQ015() {
	for _, p := range l.pkgs {
		if !exempt(p.rel, sq015Pkgs) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				l.sq015Body(fd.Name.Name, fd.Body, false)
			}
		}
	}
}

// sq015Body audits one function-like body: the spawn sites at this
// nesting level, then each closure body as its own level (a closure
// runs under its own control flow, so its spawns need their own
// deferred Wait). spawned marks a body that is itself the function of a
// `go` statement — the level where a discarded error check applies.
func (l *linter) sq015Body(fnName string, body *ast.BlockStmt, spawned bool) {
	var gos []*ast.GoStmt
	var loops []posRange
	var lits []*ast.FuncLit
	spawnedLits := map[*ast.FuncLit]bool{}
	deferredWait := false
	gomax := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, s)
			return false
		case *ast.GoStmt:
			gos = append(gos, s)
			if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
				spawnedLits[fl] = true
			}
		case *ast.ForStmt:
			loops = append(loops, posRange{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, posRange{s.Body.Pos(), s.Body.End()})
		case *ast.DeferStmt:
			if sq015IsWait(s.Call) {
				deferredWait = true
			}
		case *ast.SelectorExpr:
			if id, ok := s.X.(*ast.Ident); ok && id.Name == "runtime" && s.Sel.Name == "GOMAXPROCS" {
				gomax = true
			}
		case *ast.AssignStmt:
			if spawned && sq015BlankCall(s) {
				l.report(s.Pos(), "SQ015", fmt.Sprintf(
					"goroutine body in %s discards an error with `_ =`: record it in a per-worker slot and propagate the first failure after the join (see fanout)", fnName))
			}
		}
		return true
	})
	for _, g := range gos {
		if sq015InLoop(loops, g.Pos()) && !gomax {
			l.report(g.Pos(), "SQ015", fmt.Sprintf(
				"goroutine spawned in a loop in %s with no runtime.GOMAXPROCS bound in the function: fan-out width must track the machine's cores, not the input's size (see fanout)", fnName))
		}
		if !deferredWait {
			l.report(g.Pos(), "SQ015", fmt.Sprintf(
				"goroutine spawned in %s with no deferred Wait in the function: defer the WaitGroup's Wait so every path out joins the workers — an unjoined worker outlives the locks its caller holds", fnName))
		}
	}
	for _, fl := range lits {
		l.sq015Body(fnName, fl.Body, spawnedLits[fl])
	}
}

// posRange is a lexical extent; contains is inclusive of the braces.
type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(p token.Pos) bool { return r.lo <= p && p <= r.hi }

func sq015InLoop(loops []posRange, p token.Pos) bool {
	for _, r := range loops {
		if r.contains(p) {
			return true
		}
	}
	return false
}

// sq015IsWait recognizes a WaitGroup-style join: any `x.Wait()` call.
func sq015IsWait(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Wait"
}

// sq015BlankCall reports an assignment that throws a call's results
// away entirely: every left-hand side blank, right-hand side a call.
func sq015BlankCall(s *ast.AssignStmt) bool {
	if s.Tok != token.ASSIGN || len(s.Rhs) != 1 {
		return false
	}
	if _, ok := s.Rhs[0].(*ast.CallExpr); !ok {
		return false
	}
	for _, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
