package core_test

import (
	"slices"
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/equivtest"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/mrl"
	"streamquantiles/internal/qdigest"
	"streamquantiles/internal/streamgen"
)

// sameColumns reports whether two snapshots hold the same columns.
func sameColumns(a, b *core.QuerySnapshot) bool {
	return a.N == b.N && a.RStrict == b.RStrict &&
		slices.Equal(a.QVals, b.QVals) && slices.Equal(a.QKeys, b.QKeys) &&
		slices.Equal(a.RVals, b.RVals) && slices.Equal(a.RRanks, b.RRanks)
}

// TestSnapshotReuseAcrossFamilies rebuilds one QuerySnapshot in turn by
// families whose rank side shares the quantile columns (KLL, MRL99) and
// by families that fill the two sides separately (GK, q-digest). Every
// rebuild must equal a fresh snapshot of the same summary: a rank
// column still shared after Reset would be overwritten through the
// quantile column.
func TestSnapshotReuseAcrossFamilies(t *testing.T) {
	data := streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 9}, 30000)
	k, m := kll.New(0.01, 1), mrl.New(0.01, 2)
	g, q := gk.NewArray(0.01), qdigest.New(0.01, 16)
	for _, x := range data {
		k.Update(x)
		m.Update(x)
		g.Update(x)
		q.Update(x)
	}
	order := []struct {
		name string
		s    equivtest.Querier
	}{
		{"kll", k}, {"gkarray", g}, {"mrl", m}, {"qdigest", q},
		{"kll", k}, {"qdigest", q}, {"gkarray", g}, {"mrl", m},
	}
	var qs core.QuerySnapshot
	for step, o := range order {
		o.s.AppendQuerySnapshot(&qs)
		if !sameColumns(&qs, core.BuildQuerySnapshot(o.s)) {
			t.Fatalf("step %d (%s): reused snapshot differs from a fresh one", step, o.name)
		}
		equivtest.Check(t, o.s, &qs)
	}
}
