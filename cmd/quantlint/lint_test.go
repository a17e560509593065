package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current linter output")

// lintFixture runs the engine over one testdata module with findings
// reported relative to that module, exactly as the CLI would from
// inside it.
func lintFixture(t *testing.T, name string) []finding {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := lint(base, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func render(fs []finding, includeSuppressed bool) string {
	var b strings.Builder
	for _, f := range fs {
		if f.Suppressed && !includeSuppressed {
			continue
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update to accept):\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestBadModuleGolden pins the default (unsuppressed) output over the
// deliberately rule-violating fixture module.
func TestBadModuleGolden(t *testing.T) {
	checkGolden(t, "bad.txt", render(lintFixture(t, "bad"), false))
}

// TestBadModuleStrictGolden pins the -strict output, which additionally
// inventories the findings waived by //lint:ignore directives.
func TestBadModuleStrictGolden(t *testing.T) {
	checkGolden(t, "bad_strict.txt", render(lintFixture(t, "bad"), true))
}

// TestEachRuleFiresExactlyOnce asserts the fixture's design: every
// package internal/sqNNN trips rule SQNNN and nothing else, the scoped
// rules fire at their scoped paths, the cmd/ and harness layers are
// silent, and every rule fires somewhere.
func TestEachRuleFiresExactlyOnce(t *testing.T) {
	fs := lintFixture(t, "bad")
	rulesByPrefix := map[string]map[string]bool{}
	for _, f := range fs {
		if f.Suppressed {
			continue
		}
		prefix := f.File
		if i := strings.LastIndex(f.File, "/"); i >= 0 {
			prefix = f.File[:i]
		}
		m := rulesByPrefix[prefix]
		if m == nil {
			m = map[string]bool{}
			rulesByPrefix[prefix] = m
		}
		m[f.Rule] = true
	}
	want := map[string]string{
		"internal/sq001":      "SQ001",
		"internal/sq002":      "SQ002",
		"internal/sq003":      "SQ003",
		"internal/sq004":      "SQ004",
		"internal/sq006":      "SQ006",
		"internal/sq012":      "SQ012",
		"internal/gk":         "SQ009", // the layout rule fires at a columnar path
		"internal/sharded":    "SQ014", // the placement rule fires at its scoped path
		"internal/checkpoint": "SQ015", // the fan-out rule fires at its scoped path
		"internal/ignored":    "SQ000", // the malformed directive
	}
	fired := map[string]bool{}
	for _, rule := range want {
		fired[rule] = true
	}
	for _, r := range ruleTable {
		if !fired[r.id] {
			t.Errorf("%s fires nowhere in the bad fixture", r.id)
		}
	}
	for prefix, rule := range want {
		m := rulesByPrefix[prefix]
		if len(m) != 1 || !m[rule] {
			t.Errorf("%s: want exactly rule %s, got %v", prefix, rule, m)
		}
	}
	for prefix := range rulesByPrefix {
		if _, ok := want[prefix]; !ok {
			t.Errorf("unexpected findings outside the designed packages: %s -> %v", prefix, rulesByPrefix[prefix])
		}
	}
}

// TestSuppressionStyles verifies the directive placements — the line
// before the finding, a trailing comment on the finding's line, and a
// comma list waiving two rules at once — and that the reason is carried
// through.
func TestSuppressionStyles(t *testing.T) {
	var suppressed []finding
	for _, f := range lintFixture(t, "bad") {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) != 4 {
		t.Fatalf("want the 4 waived findings of internal/ignored, got %d: %v", len(suppressed), suppressed)
	}
	counts := map[string]int{}
	for _, f := range suppressed {
		counts[f.Rule]++
		if !strings.HasPrefix(f.File, "internal/ignored/") {
			t.Errorf("suppressed finding outside internal/ignored: %v", f)
		}
		if !strings.HasPrefix(f.Reason, "fixture:") {
			t.Errorf("directive reason not carried through: %q", f.Reason)
		}
	}
	if counts["SQ002"] != 2 || counts["SQ003"] != 2 {
		t.Errorf("want 2 suppressed SQ002 and 2 SQ003 (single directives plus the comma list), got %v", counts)
	}
}

// TestCleanModuleIsSilent pins the zero-findings contract on the
// rule-abiding fixture.
func TestCleanModuleIsSilent(t *testing.T) {
	if fs := lintFixture(t, "clean"); len(fs) != 0 {
		t.Errorf("clean module produced findings: %s", render(fs, true))
	}
}

var repoLint struct {
	once sync.Once
	fs   []finding
	err  error
}

// lintRepo lints the real repository once per test binary; the tree
// checks below share that one pass.
func lintRepo(t *testing.T) []finding {
	t.Helper()
	repoLint.once.Do(func() {
		base, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			repoLint.err = err
			return
		}
		repoLint.fs, repoLint.err = lint(base, []string{"./..."})
	})
	if repoLint.err != nil {
		t.Fatal(repoLint.err)
	}
	return repoLint.fs
}

// TestRepoIsLintClean runs the linter over the real repository: HEAD
// must stay free of unsuppressed findings (the same gate `make lint`
// enforces).
func TestRepoIsLintClean(t *testing.T) {
	if active := render(lintRepo(t), false); active != "" {
		t.Errorf("repository is not lint-clean:\n%s", active)
	}
}

// TestNewRulesCleanOnRepo is the tree-health self-check for the
// eps-budget rule alone: the real repository must be clean under SQ012
// with no waivers at all (the eps discipline holds everywhere, not just
// modulo ignores).
func TestNewRulesCleanOnRepo(t *testing.T) {
	for _, f := range lintRepo(t) {
		if f.Rule == "SQ012" {
			t.Errorf("SQ012 reports a finding on the real tree: %v", f)
		}
	}
}

// TestRuleTable pins the catalog `-rules` prints: the surviving ids in
// order (retired numbers are never reused, so every //lint:ignore keeps
// its meaning), each with a one-line doc and a pass.
func TestRuleTable(t *testing.T) {
	want := []string{"SQ001", "SQ002", "SQ003", "SQ004", "SQ006", "SQ009",
		"SQ012", "SQ014", "SQ015"}
	if len(ruleTable) != len(want) {
		t.Fatalf("want %d registered rules, got %d", len(want), len(ruleTable))
	}
	for i, r := range ruleTable {
		if r.id != want[i] {
			t.Errorf("ruleTable[%d].id = %s, want %s", i, r.id, want[i])
		}
		if r.doc == "" || r.run == nil {
			t.Errorf("%s: missing doc or run", r.id)
		}
	}
}
