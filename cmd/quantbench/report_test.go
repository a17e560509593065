package main

import (
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixture builds a report with one row shape from each baseline path:
// speedup rows (ingest/batch, query/*) and scaling sweeps
// (ingest/sharded, parallel/writers, checkpoint/*), at gomaxprocs 2.
// Scaling rows are chosen unclamped, so a slower measured side always
// lowers their ratio.
func fixture(scale float64) *report {
	rep := &report{N: 1000, GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0", Workload: "uniform(u=2^24)"}
	add := func(path, summary string, p int, scaling bool, ref, got float64) {
		r := row{Path: path, Summary: summary, P: p, Scaling: scaling, RefUs: ref * scale, GotUs: got}
		r.setRatio(rep.GOMAXPROCS)
		rep.Rows = append(rep.Rows, r)
	}
	add("ingest/batch", "gkadaptive", 1, false, 1300, 160)
	add("ingest/batch", "qdigest", 1, false, 600, 780)
	add("ingest/sharded", "dcs", 2, true, 2800, 1700)
	add("ingest/sharded", "dcs", 4, true, 2800, 1600)
	add("query/batch", "gkarray", 1, false, 292, 9.8)
	add("query/cached", "gkarray", 1, false, 292, 2.2)
	add("query/hot", "dcs", 4, false, 1500, 2.5)
	add("parallel/writers", "kll", 2, true, 20, 14)
	add("parallel/writers", "kll", 4, true, 20, 11)
	add("checkpoint/save", "kll", 4, true, 1000, 700)
	add("checkpoint/save", "kll", 64, true, 1000, 650)
	add("checkpoint/recover", "gkarray", 4, true, 4500, 3300)
	add("checkpoint/recover", "gkarray", 64, true, 4500, 3500)
	return rep
}

func TestReportRoundTrip(t *testing.T) {
	want := fixture(1)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeReport(want, path); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, want)
	}
}

func TestCompareSelfPasses(t *testing.T) {
	rep := fixture(1)
	if err := compare(rep, rep, 0.25, io.Discard); err != nil {
		t.Fatalf("a report compared with itself: %v", err)
	}
}

// TestCompareCatchesEachGatedRow slows the measured side of one gated
// row at a time by 1.5x — past the 25% tolerance — and expects compare
// to fail naming exactly that row.
func TestCompareCatchesEachGatedRow(t *testing.T) {
	base := fixture(1)
	kinds := map[bool]bool{}
	for _, g := range base.gated() {
		t.Run(g.String(), func(t *testing.T) {
			cur := fixture(1)
			for i := range cur.Rows {
				if cur.Rows[i].key() == g.key() {
					cur.Rows[i].GotUs *= 1.5
					cur.Rows[i].setRatio(cur.GOMAXPROCS)
				}
			}
			err := compare(base, cur, 0.25, io.Discard)
			if err == nil || !strings.Contains(err.Error(), g.String()) {
				t.Fatalf("compare = %v, want an error naming %q", err, g)
			}
		})
		kinds[g.Scaling] = true
	}
	if !kinds[false] || !kinds[true] {
		t.Fatalf("fixture gates speedup rows %v, scaling rows %v; want both", kinds[false], kinds[true])
	}
}

func TestCompareMissingRowFails(t *testing.T) {
	base, cur := fixture(1), fixture(1)
	cur.Rows = cur.Rows[1:]
	err := compare(base, cur, 0.25, io.Discard)
	if err == nil || !strings.Contains(err.Error(), base.Rows[0].String()) {
		t.Fatalf("compare = %v, want an error naming the missing %q", err, base.Rows[0])
	}
}

func TestCompareRefusesOtherCoreCount(t *testing.T) {
	base, cur := fixture(1), fixture(1)
	cur.GOMAXPROCS = 1
	err := compare(base, cur, 0.25, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "gomaxprocs 2") || !strings.Contains(err.Error(), "gomaxprocs 1") {
		t.Fatalf("compare = %v, want an error naming both gomaxprocs values", err)
	}
}

// TestMergeIsConservative pins the merge's promise for every row shape:
// the merged ratio lower-bounds each input run's ratio, and the merged
// row's ref/got pair is one run's own timing. Each case pairs the
// fixture with a run whose reference side is faster or slower, so the
// fastest ref and the slowest got come from different runs on every
// path.
func TestMergeIsConservative(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b *report
	}{
		{"faster reference in b", fixture(1), fixture(0.8)},
		{"slower reference in b", fixture(1), fixture(1.3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Shift b's measured side against a's.
			for i := range tc.b.Rows {
				tc.b.Rows[i].GotUs *= 0.9
				tc.b.Rows[i].setRatio(tc.b.GOMAXPROCS)
			}
			aRows := append([]row(nil), tc.a.Rows...)
			m := merge(*tc.a, *tc.b)
			for i, r := range m.Rows {
				a, b := aRows[i], tc.b.Rows[i]
				if r.Ratio > a.Ratio || r.Ratio > b.Ratio {
					t.Errorf("%s: merged ratio %.3f exceeds an input (%.3f, %.3f)", r, r.Ratio, a.Ratio, b.Ratio)
				}
				if r != a && r != b {
					t.Errorf("%s: merged row %+v is neither input run's measurement", r, r)
				}
			}
		})
	}
}

// TestCommittedBaselinesGate pins which committed rows gate: one rule
// over one schema must keep every speedup and each sweep's widest
// fan-out under the compare, and all four files must share one core
// count so one -cpus pin serves every gate.
func TestCommittedBaselinesGate(t *testing.T) {
	want := map[string]int{
		"ingest/batch": 11, "ingest/sharded": 2,
		"query/batch": 12, "query/cached": 12, "query/hot": 3,
		"parallel/writers":   8,
		"checkpoint/marshal": 2, "checkpoint/save": 2, "checkpoint/recover": 2,
	}
	got := map[string]int{}
	procs := map[int]bool{}
	for _, name := range []string{"ingest", "query", "parallel", "checkpoint"} {
		rep, err := readReport(filepath.Join("..", "..", "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		procs[rep.GOMAXPROCS] = true
		for _, r := range rep.gated() {
			if !strings.HasPrefix(r.Path, name+"/") || !(r.Ratio > 0) {
				t.Errorf("BENCH_%s.json: bad gated row %s (ratio %v)", name, r, r.Ratio)
			}
			got[r.Path]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gated rows per path = %v, want %v", got, want)
	}
	if len(procs) != 1 {
		t.Errorf("baselines recorded at several gomaxprocs values: %v", procs)
	}
}
