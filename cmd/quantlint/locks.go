// The held-lock dataflow shared by SQ010 (guarded-by discipline) and
// SQ011 (unlock-path soundness). One forward pass per function over the
// CFG of cfg.go tracks, per path, which mutexes are held:
//
//	must     locks held on EVERY path reaching this point and not yet
//	         released — joined by intersection. SQ010 accepts an access
//	         when the guard is in must (or deferred: still held, release
//	         scheduled at exit).
//	may      locks possibly held and not yet released — joined by
//	         union. SQ011 reports any lock still in may at a function
//	         exit: some path out leaks it.
//	deferred locks whose release is scheduled via defer — joined by
//	         intersection. A deferred release moves the lock from
//	         must/may into deferred: held for SQ010's purposes until
//	         exit, excused from SQ011's leak check.
//
// Lock identity is the printed path of the expression the mutex is
// reached through ("c.mu", "sh.mu"): intra-function alias analysis by
// spelling, which matches how this codebase takes locks (a shard is
// always bound to a local `sh` before locking). Selectors of embedded
// fields drop out of the path, so a field promoted through embedding
// has one identity however it is spelled: `c.core.mu` and `c.mu` are
// the same lock, `c.core.s` and `c.s` the same guarded access. Events:
//
//	x.Lock() / x.RLock()      acquire x (RWMutex read and write locks
//	                          share one key: either satisfies SQ010)
//	x.Unlock() / x.RUnlock()  release x
//	defer x.Unlock()          deferred release of x
//
// Constructors (New*/new*) are exempt from SQ010: they build the
// struct before it escapes, so no lock can or need be held. Explicit
// panic(...) is an exit; deferred unlocks run on panic too, so a
// deferred lock is never reported leaked across one.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockState is the per-program-point dataflow fact. Positions remember
// the first acquire site for reporting.
type lockState struct {
	must     map[string]token.Pos
	may      map[string]token.Pos
	deferred map[string]token.Pos
}

func newLockState() *lockState {
	return &lockState{
		must:     map[string]token.Pos{},
		may:      map[string]token.Pos{},
		deferred: map[string]token.Pos{},
	}
}

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.must {
		c.must[k] = v
	}
	for k, v := range st.may {
		c.may[k] = v
	}
	for k, v := range st.deferred {
		c.deferred[k] = v
	}
	return c
}

func (st *lockState) acquire(key string, pos token.Pos) {
	if _, ok := st.must[key]; !ok {
		st.must[key] = pos
	}
	if _, ok := st.may[key]; !ok {
		st.may[key] = pos
	}
}

func (st *lockState) release(key string) {
	delete(st.must, key)
	delete(st.may, key)
	delete(st.deferred, key)
}

func (st *lockState) deferRelease(key string, pos token.Pos) {
	delete(st.must, key)
	delete(st.may, key)
	if _, ok := st.deferred[key]; !ok {
		st.deferred[key] = pos
	}
}

func (st *lockState) held(key string) bool {
	_, m := st.must[key]
	_, d := st.deferred[key]
	return m || d
}

// joinFrom merges an incoming edge state into st (must/deferred by
// intersection, may by union) and reports whether st changed.
func (st *lockState) joinFrom(in *lockState) bool {
	changed := false
	for k := range st.must {
		if _, ok := in.must[k]; !ok {
			delete(st.must, k)
			changed = true
		}
	}
	for k := range st.deferred {
		if _, ok := in.deferred[k]; !ok {
			delete(st.deferred, k)
			changed = true
		}
	}
	for k, pos := range in.may {
		if _, ok := st.may[k]; !ok {
			st.may[k] = pos
			changed = true
		}
	}
	return changed
}

// lockFindings is the memoized result of the lock analysis of one
// package, split by reporting rule.
type lockFindings struct {
	sq010 []pendingFinding
	sq011 []pendingFinding
}

// lockAnalysis runs (once per package, memoized) the shared SQ010/SQ011
// pass. Packages with no lock calls and no annotations skip it — and
// skip type checking — entirely.
func (l *linter) lockAnalysis(p *pkgInfo) *lockFindings {
	if r, ok := l.locks[p]; ok {
		return r
	}
	r := &lockFindings{}
	l.locks[p] = r
	if !packageUsesLocks(p) {
		return r
	}
	ti := l.typed(p)
	if ti == nil {
		return r
	}
	gt := buildGuardTable(p, ti)
	r.sq010 = append(r.sq010, gt.bad...)
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fa := &funcLockAnalysis{ti: ti, gt: gt, fd: fd, out: r,
				isCtor: strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new")}
			fa.run()
		}
	}
	return r
}

// packageUsesLocks is the cheap syntactic gate: any Lock/RLock call
// token or any annotation means the typed pass is worth paying for.
func packageUsesLocks(p *pkgInfo) bool {
	found := false
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				switch n.Sel.Name {
				case "Lock", "RLock", "Unlock", "RUnlock":
					found = true
				}
			case *ast.Field:
				if guardedByField(n) != "" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// funcLockAnalysis drives the fixpoint and the reporting pass over one
// function.
type funcLockAnalysis struct {
	ti     *typeInfo
	gt     *guardTable
	fd     *ast.FuncDecl
	out    *lockFindings
	isCtor bool

	reporting  bool
	seenAccess map[token.Pos]bool // SQ010 dedup per access site
	seenLeak   map[token.Pos]bool // SQ011 dedup per acquire site
}

func (fa *funcLockAnalysis) run() {
	cfg := buildCFG(fa.fd.Body)
	if cfg.broken {
		return // goto/unresolvable branch: skip rather than guess
	}
	in := map[*cfgBlock]*lockState{cfg.entry: newLockState()}
	work := []*cfgBlock{cfg.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[b].clone()
		fa.transfer(b, st)
		for _, s := range b.succs {
			if cur, ok := in[s]; !ok {
				in[s] = st.clone()
				work = append(work, s)
			} else if cur.joinFrom(st) {
				work = append(work, s)
			}
		}
	}
	// Reporting pass: re-run each reachable block from its converged
	// in-state, in declaration order for deterministic output.
	fa.reporting = true
	fa.seenAccess = map[token.Pos]bool{}
	fa.seenLeak = map[token.Pos]bool{}
	for _, b := range cfg.blocks {
		st, ok := in[b]
		if !ok {
			continue // unreachable
		}
		st = st.clone()
		fa.transfer(b, st)
		if b.terminal || len(b.succs) == 0 {
			fa.checkExit(b, st)
		}
	}
}

// transfer interprets one block's nodes against st, reporting SQ010
// violations when in reporting mode.
func (fa *funcLockAnalysis) transfer(b *cfgBlock, st *lockState) {
	for _, n := range b.nodes {
		fa.scanNode(n, st)
	}
}

// checkExit reports locks still possibly held when control leaves the
// function through this block.
func (fa *funcLockAnalysis) checkExit(b *cfgBlock, st *lockState) {
	for key, pos := range st.may {
		if fa.seenLeak[pos] {
			continue
		}
		fa.seenLeak[pos] = true
		fa.out.sq011 = append(fa.out.sq011, pendingFinding{pos, fmt.Sprintf(
			"%s acquired here is not released on every path out of %s: unlock before each return or defer the unlock", key, fa.fd.Name.Name)})
	}
}

func (fa *funcLockAnalysis) scanNode(n ast.Node, st *lockState) {
	switch n := n.(type) {
	case nil:
	case *ast.DeferStmt:
		fa.scanDefer(n, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			fa.scanExpr(r, st)
		}
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			fa.scanExpr(r, st)
		}
		for _, lhs := range n.Lhs {
			fa.scanExpr(lhs, st)
		}
	case *ast.ExprStmt:
		fa.scanExpr(n.X, st)
	case *ast.IncDecStmt:
		fa.scanExpr(n.X, st)
	case *ast.SendStmt:
		fa.scanExpr(n.Chan, st)
		fa.scanExpr(n.Value, st)
	case *ast.GoStmt:
		// The goroutine body runs under its own schedule; only the
		// call's operands evaluate here.
		for _, a := range n.Call.Args {
			fa.scanExpr(a, st)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fa.scanExpr(v, st)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		fa.scanNode(n.Stmt, st)
	case *ast.EmptyStmt:
	case ast.Expr:
		fa.scanExpr(n, st)
	case ast.Stmt:
		// A statement shape the builder emitted whole that carries no
		// lock semantics of its own; scan contained expressions
		// conservatively (skipping nested closures).
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if e, ok := m.(ast.Expr); ok {
				fa.scanExpr(e, st)
				return false
			}
			return true
		})
	}
}

// scanDefer interprets `defer` statements: deferred unlocks, and opaque
// deferred calls (arguments still evaluate now).
func (fa *funcLockAnalysis) scanDefer(d *ast.DeferStmt, st *lockState) {
	call := d.Call
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 0 {
		if isUnlockName(sel.Sel.Name) && fa.isMutexExpr(sel.X) {
			st.deferRelease(fa.lockKey(sel.X), d.Pos())
			return
		}
	}
	for _, a := range call.Args {
		fa.scanExpr(a, st)
	}
}

func isUnlockName(name string) bool { return name == "Unlock" || name == "RUnlock" }
func isLockName(name string) bool   { return name == "Lock" || name == "RLock" }

// isMutexExpr reports whether e types as a sync mutex. Missing type
// information is treated permissively: a Lock/Unlock-shaped call on an
// unresolved receiver still counts, so partial type checking degrades
// toward more pairing coverage, not silence.
func (fa *funcLockAnalysis) isMutexExpr(e ast.Expr) bool {
	if t := fa.ti.typeOf(e); t != nil {
		return isMutexType(t)
	}
	return true
}

// lockKey renders the expression path a mutex is reached through,
// skipping embedded-field selectors (see the package comment).
func (fa *funcLockAnalysis) lockKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if v, ok := fa.ti.info.Uses[e.Sel].(*types.Var); ok && v.Embedded() {
			return fa.lockKey(e.X)
		}
		return fa.lockKey(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return fa.lockKey(e.X)
	}
	return types.ExprString(e)
}

func (fa *funcLockAnalysis) scanExpr(e ast.Expr, st *lockState) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && len(e.Args) == 0 {
			if isLockName(sel.Sel.Name) && fa.isMutexExpr(sel.X) {
				fa.scanExpr(sel.X, st)
				st.acquire(fa.lockKey(sel.X), e.Pos())
				return
			}
			if isUnlockName(sel.Sel.Name) && fa.isMutexExpr(sel.X) {
				fa.scanExpr(sel.X, st)
				st.release(fa.lockKey(sel.X))
				return
			}
		}
		fa.scanExpr(e.Fun, st)
		for _, a := range e.Args {
			fa.scanExpr(a, st)
		}
	case *ast.SelectorExpr:
		fa.checkAccess(e, st)
		fa.scanExpr(e.X, st)
	case *ast.FuncLit:
		// Closures run under some other lock regime; see cfg.go.
	case *ast.ParenExpr:
		fa.scanExpr(e.X, st)
	case *ast.StarExpr:
		fa.scanExpr(e.X, st)
	case *ast.UnaryExpr:
		fa.scanExpr(e.X, st)
	case *ast.BinaryExpr:
		fa.scanExpr(e.X, st)
		fa.scanExpr(e.Y, st)
	case *ast.IndexExpr:
		fa.scanExpr(e.X, st)
		fa.scanExpr(e.Index, st)
	case *ast.IndexListExpr:
		fa.scanExpr(e.X, st)
	case *ast.SliceExpr:
		fa.scanExpr(e.X, st)
		fa.scanExpr(e.Low, st)
		fa.scanExpr(e.High, st)
		fa.scanExpr(e.Max, st)
	case *ast.TypeAssertExpr:
		fa.scanExpr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fa.scanExpr(kv.Value, st)
				continue
			}
			fa.scanExpr(el, st)
		}
	case *ast.KeyValueExpr:
		fa.scanExpr(e.Value, st)
	}
}

// checkAccess reports a read/write of a guarded field without its
// mutex held (SQ010), outside constructors.
func (fa *funcLockAnalysis) checkAccess(sel *ast.SelectorExpr, st *lockState) {
	if !fa.reporting || fa.isCtor || len(fa.gt.fields) == 0 {
		return
	}
	obj := fa.ti.info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	guard, ok := fa.gt.fields[obj]
	if !ok {
		return
	}
	key := fa.lockKey(sel.X) + "." + guard
	if st.held(key) {
		return
	}
	if fa.seenAccess[sel.Pos()] {
		return
	}
	fa.seenAccess[sel.Pos()] = true
	fa.out.sq010 = append(fa.out.sq010, pendingFinding{sel.Pos(), fmt.Sprintf(
		"access of %s (guarded by %s) in %s without holding %s: take the lock before touching the field (a deferred unlock keeps it held through every exit)",
		types.ExprString(sel), key, fa.fd.Name.Name, key)})
}
