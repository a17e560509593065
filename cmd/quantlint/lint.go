// Engine: package discovery, parsing, ignore directives, and finding
// bookkeeping. The rule registry lives in rules.go and each rule in its
// own sqNNN.go file. Every rule is syntactic: parsing is pure go/ast +
// go/parser, with no type information.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// finding is one diagnostic. File is slash-separated and relative to
// the directory quantlint was invoked from, so output is stable across
// machines (and across golden-file runs).
type finding struct {
	File       string
	Line       int
	Col        int
	Rule       string
	Msg        string
	Suppressed bool
	Reason     string
}

func (f finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// module is one go.mod scope. A single lint run may span several
// modules (the linter's own testdata trees are self-contained modules).
type module struct {
	path string // module path declared in go.mod
	dir  string // absolute directory holding go.mod
}

// pkgInfo is one parsed package directory (non-test files only).
type pkgInfo struct {
	rel   string // slash path relative to module root; "" for the root package
	mod   *module
	files []*ast.File
}

// ignoreDirective is one `//lint:ignore SQxxx reason` comment. It
// suppresses findings of that rule on the same line or the line
// directly below (i.e. the directive sits on the offending line or on
// the line before it).
type ignoreDirective struct {
	rule   string
	reason string
}

type linter struct {
	base     string // invocation directory; findings are relative to it
	fset     *token.FileSet
	mods     map[string]*module // keyed by absolute module dir
	pkgs     []*pkgInfo
	ignores  map[string]map[int][]ignoreDirective // file -> line -> directives
	findings []finding
}

// lint parses every package matched by the patterns and runs all rules.
// Patterns follow the go tool's shape: a directory, or dir/... for a
// recursive walk. The returned findings include suppressed ones, sorted
// by position; the caller decides what to show.
func lint(base string, patterns []string) ([]finding, error) {
	l := &linter{
		base:    base,
		fset:    token.NewFileSet(),
		mods:    map[string]*module{},
		ignores: map[string]map[int][]ignoreDirective{},
	}
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if err := l.load(dir); err != nil {
			return nil, err
		}
	}
	for _, r := range ruleTable {
		r.run(l)
	}
	l.markSuppressed()
	sort.Slice(l.findings, func(i, j int) bool {
		a, b := l.findings[i], l.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return l.findings, nil
}

// expand turns CLI patterns into a deduplicated list of directories.
// Walks skip testdata, vendor, hidden/underscore directories and nested
// modules — except when one of those is the walk root itself, which
// lets the linter be pointed straight at its own testdata trees.
func (l *linter) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.base, pat)
		}
		if fi, err := os.Stat(pat); err != nil {
			return nil, fmt.Errorf("quantlint: %v", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("quantlint: %s is not a directory", pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		root := pat
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != root {
				name := d.Name()
				if name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return fs.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return fs.SkipDir // nested module: lint it explicitly or not at all
				}
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// load parses the non-test .go files of one directory into a pkgInfo
// (none if the directory holds no Go source) and records its ignore
// directives.
func (l *linter) load(dir string) error {
	mod, err := l.findModule(dir)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		l.collectIgnores(path, f)
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(mod.dir, dir)
	if err != nil {
		return err
	}
	if rel == "." {
		rel = ""
	}
	l.pkgs = append(l.pkgs, &pkgInfo{rel: filepath.ToSlash(rel), mod: mod, files: files})
	return nil
}

// findModule walks up from dir to the enclosing go.mod and parses its
// module path. Results are cached per module directory.
func (l *linter) findModule(dir string) (*module, error) {
	probe := dir
	for {
		if m, ok := l.mods[probe]; ok {
			return m, nil
		}
		gomod := filepath.Join(probe, "go.mod")
		if _, err := os.Stat(gomod); err == nil {
			path, err := modulePath(gomod)
			if err != nil {
				return nil, err
			}
			m := &module{path: path, dir: probe}
			l.mods[probe] = m
			return m, nil
		}
		parent := filepath.Dir(probe)
		if parent == probe {
			return nil, fmt.Errorf("quantlint: no go.mod found above %s", dir)
		}
		probe = parent
	}
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				continue
			}
			if unq, err := strconv.Unquote(rest); err == nil {
				return unq, nil
			}
			return rest, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("quantlint: %s declares no module path", gomod)
}

// collectIgnores indexes the file's //lint:ignore directives by line.
// A directive must name a rule — or a comma-separated list of rules,
// `//lint:ignore SQ002,SQ003 reason` — and give a non-empty reason;
// malformed directives are themselves reported so they cannot silently
// rot. A comma list expands to one directive per rule sharing the one
// reason.
func (l *linter) collectIgnores(path string, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := l.fset.Position(c.Pos())
			fields := strings.Fields(text)
			rules := []string{}
			if len(fields) >= 2 {
				for _, r := range strings.Split(fields[0], ",") {
					if strings.HasPrefix(r, "SQ") {
						rules = append(rules, r)
					} else {
						rules = nil
						break
					}
				}
			}
			if len(rules) == 0 {
				l.findings = append(l.findings, finding{
					File: l.relFile(pos.Filename), Line: pos.Line, Col: pos.Column,
					Rule: "SQ000",
					Msg:  "malformed ignore directive: want //lint:ignore SQxxx reason",
				})
				continue
			}
			m := l.ignores[path]
			if m == nil {
				m = map[int][]ignoreDirective{}
				l.ignores[path] = m
			}
			reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0]))
			for _, r := range rules {
				m[pos.Line] = append(m[pos.Line], ignoreDirective{rule: r, reason: reason})
			}
		}
	}
}

func (l *linter) relFile(abs string) string {
	rel, err := filepath.Rel(l.base, abs)
	if err != nil {
		return filepath.ToSlash(abs)
	}
	return filepath.ToSlash(rel)
}

// report records one finding at a token position.
func (l *linter) report(pos token.Pos, rule, msg string) {
	p := l.fset.Position(pos)
	l.findings = append(l.findings, finding{
		File: l.relFile(p.Filename), Line: p.Line, Col: p.Column,
		Rule: rule, Msg: msg,
	})
}

// markSuppressed matches findings against the ignore index. The
// directive may sit on the finding's own line (trailing comment) or on
// the line directly above it.
func (l *linter) markSuppressed() {
	for i := range l.findings {
		f := &l.findings[i]
		abs := filepath.Join(l.base, filepath.FromSlash(f.File))
		m := l.ignores[abs]
		if m == nil {
			continue
		}
		for _, line := range []int{f.Line, f.Line - 1} {
			for _, d := range m[line] {
				if d.rule == f.Rule {
					f.Suppressed = true
					f.Reason = d.reason
				}
			}
		}
	}
}
