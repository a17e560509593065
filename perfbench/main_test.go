package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsAtTinySizes runs every workload of BENCHMARK.json at tiny
// sizes, untraced and traced: each must pass its correctness gate and
// report exactly the metrics BENCHMARK.json names, with their units;
// every end-to-end metric must be non-zero.
func TestWorkloadsAtTinySizes(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 0.4, trace: trace, small: true}
			r, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			rep := r.report(cfg)
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed: %v", w.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: reports %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s in %s, BENCHMARK.json says %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			for name := range rep.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q uses characters outside letters, digits, _ . -", w.Name, name)
				}
			}
		}
	}
}

// TestMetricTablesMatchSpec keeps the benchmark's own metric tables and
// BENCHMARK.json in step, and every name within the allowed characters.
func TestMetricTablesMatchSpec(t *testing.T) {
	s := readSpec(t)
	for _, c := range []struct {
		kind string
		code []metricDef
		spec []specMetric
	}{{"end_to_end", endToEndMetrics(), s.EndToEnd}, {"per_layer", perLayerMetrics(), s.PerLayer}} {
		if len(c.code) != len(c.spec) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", c.kind, len(c.code), len(c.spec))
			continue
		}
		for i, m := range c.code {
			if m.name != c.spec[i].Name || m.unit != c.spec[i].Unit {
				t.Errorf("%s[%d]: benchmark has %s (%s), BENCHMARK.json %s (%s)", c.kind, i, m.name, m.unit, c.spec[i].Name, c.spec[i].Unit)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: name %q uses characters outside letters, digits, _ . -", c.kind, m.name)
			}
		}
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
	}
}

// TestPredictionsCoverPerLayerMetrics checks that predictions.json
// records, for every per-layer metric, end-to-end metrics and workloads
// that BENCHMARK.json defines.
func TestPredictionsCoverPerLayerMetrics(t *testing.T) {
	s := readSpec(t)
	blob, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Metrics map[string]struct {
			Moves     []string `json:"moves"`
			Workloads []string `json:"workloads"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range s.Workloads {
		wls[w.Name] = true
	}
	layers := map[string]bool{}
	for _, m := range s.PerLayer {
		layers[m.Name] = true
		pr, ok := p.Metrics[m.Name]
		if !ok {
			t.Errorf("predictions.json has no entry for %s", m.Name)
			continue
		}
		for _, mv := range pr.Moves {
			if !e2e[mv] {
				t.Errorf("%s: predicted to move %q, which is no end-to-end metric", m.Name, mv)
			}
		}
		if len(pr.Workloads) == 0 {
			t.Errorf("%s: no workload named", m.Name)
		}
		for _, w := range pr.Workloads {
			if !wls[w] {
				t.Errorf("%s: predicted on %q, which is no workload", m.Name, w)
			}
		}
	}
	for name := range p.Metrics {
		if !layers[name] {
			t.Errorf("predictions.json names %s, which is no per-layer metric", name)
		}
	}
}

// TestResultLine checks the last line of a run's output: one JSON object
// with exactly correct, attempted, failed and metrics.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	cfg := config{workload: "paper-roster", seed: 1, seconds: 0.1, small: true}
	r, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.print(&out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
}

// TestCompareRefusesDifferentShapes checks that two reports taken on
// different core counts are refused, not normalized.
func TestCompareRefusesDifferentShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := report{Workload: "cash-live", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0",
		Metrics: map[string]metricValue{"ingest_melem_per_s": {10, "Melem/s"}}}
	other := base
	other.NumCPU, other.GOMAXPROCS = 8, 8
	a, b := write("a.json", base), write("b.json", other)
	var stdout, stderr bytes.Buffer
	if code := compareReports(a, b, &stdout, &stderr); code != 2 {
		t.Errorf("comparing 2-core and 8-core reports exited %d, want 2", code)
	}
	if code := compareReports(a, a, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a report with itself exited %d: %s", code, stderr.String())
	}
}
