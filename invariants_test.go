package streamquantiles

import (
	"encoding"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"streamquantiles/internal/invariant"
	"streamquantiles/internal/xhash"
)

// summaryRoster builds one empty instance of every summary registered
// in quantiles.go, keyed by its constructor's name minus "New", plus
// the OLS snapshot PostProcess builds. It is the one roster the
// registry, invariant and allocation tests share; TestRegistryIsComplete
// fails when a constructor is missing from it. The value type is the
// compile-time half of the Invariants contract: a registered summary
// without Invariants() error stops this package's tests from compiling.
func summaryRoster() map[string]Checkable {
	return map[string]Checkable{
		"GKAdaptive":   NewGKAdaptive(0.01),
		"GKTheory":     NewGKTheory(0.01),
		"GKArray":      NewGKArray(0.01),
		"GKBiased":     NewGKBiased(0.01),
		"QDigest":      NewQDigest(0.01, 16),
		"MRL99":        NewMRL99(0.01, 1),
		"Random":       NewRandom(0.01, 1),
		"KLL":          NewKLL(0.01, 1),
		"Windowed":     NewWindowed(0.05, 1000, 1),
		"DCM":          NewDCM(0.05, 16, DyadicConfig{Seed: 1}),
		"DCS":          NewDCS(0.05, 16, DyadicConfig{Seed: 1}),
		"DRSS":         NewDRSS(0.05, 16, DyadicConfig{Seed: 1}),
		"Post(on DCS)": PostProcess(NewDCS(0.05, 16, DyadicConfig{Seed: 1}), 0),
	}
}

// TestEverySummaryImplementsCheckable pins the Invariants contract at
// compile time (summaryRoster's value type) and at runtime: every
// registered summary reports a sound structure when empty.
func TestEverySummaryImplementsCheckable(t *testing.T) {
	for name, s := range summaryRoster() {
		if err := CheckInvariants(s); err != nil {
			t.Errorf("%s (empty): %v", name, err)
		}
	}
}

// TestRegistryIsComplete closes the gaps the compiler leaves open in
// the registry: every exported New* constructor in quantiles.go must
// appear in summaryRoster, and every roster summary with a binary codec
// must decode as well as encode and be listed in matrixSummaries (under
// its lower-cased name), the table the golden, fuzz and crash-recovery
// tests iterate.
func TestRegistryIsComplete(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "quantiles.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	roster := summaryRoster()
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "New") {
			continue
		}
		if _, ok := roster[strings.TrimPrefix(fd.Name.Name, "New")]; !ok {
			t.Errorf("%s is missing from summaryRoster: list it so the invariant, codec and allocation tests cover it", fd.Name.Name)
		}
	}
	matrix := map[string]bool{}
	for _, ms := range matrixSummaries {
		matrix[ms.name] = true
	}
	for name, s := range roster {
		if _, ok := s.(encoding.BinaryMarshaler); !ok {
			continue
		}
		if _, ok := s.(encoding.BinaryUnmarshaler); !ok {
			t.Errorf("%s implements MarshalBinary but not UnmarshalBinary: a one-way codec makes checkpoints write-only", name)
		}
		if key := strings.ToLower(name); !matrix[key] {
			t.Errorf("%s has a codec but no matrixSummaries entry %q: the golden, fuzz and crash matrices must exercise it", name, key)
		}
	}
}

// TestInvariantsHoldUnderLoad streams adversarially shaped data (sorted,
// reversed, heavy duplicates, random) through every cash-register
// summary, checking the deep invariants at every power-of-two checkpoint
// and at the end.
func TestInvariantsHoldUnderLoad(t *testing.T) {
	const n = 20000
	shapes := map[string]func(i int, rng *xhash.SplitMix64) uint64{
		"sorted":   func(i int, _ *xhash.SplitMix64) uint64 { return uint64(i) },
		"reversed": func(i int, _ *xhash.SplitMix64) uint64 { return uint64(n - i) },
		"dups":     func(i int, _ *xhash.SplitMix64) uint64 { return uint64(i % 7) },
		"random":   func(_ int, rng *xhash.SplitMix64) uint64 { return rng.Uint64n(1 << 16) },
	}
	for shape, gen := range shapes {
		t.Run(shape, func(t *testing.T) {
			rng := xhash.NewSplitMix64(42)
			summaries := map[string]CashRegister{
				"GKAdaptive": NewGKAdaptive(0.01),
				"GKTheory":   NewGKTheory(0.01),
				"GKArray":    NewGKArray(0.01),
				"GKBiased":   NewGKBiased(0.01),
				"QDigest":    NewQDigest(0.01, 16),
				"MRL99":      NewMRL99(0.02, rng.Next()),
				"Random":     NewRandom(0.02, rng.Next()),
				"KLL":        NewKLL(0.02, rng.Next()),
				"Windowed":   NewWindowed(0.05, n/3, rng.Next()),
			}
			for i := 0; i < n; i++ {
				x := gen(i, rng)
				checkpoint := i&(i+1) == 0 // i+1 is a power of two
				for name, s := range summaries {
					s.Update(x)
					if !checkpoint {
						continue
					}
					if err := CheckInvariants(s.(Checkable)); err != nil {
						t.Fatalf("%s after %d updates: %v", name, i+1, err)
					}
				}
			}
			for name, s := range summaries {
				_ = s.Quantile(0.5) // queries flush/drain internal buffers
				if err := CheckInvariants(s.(Checkable)); err != nil {
					t.Errorf("%s after queries: %v", name, err)
				}
			}
		})
	}
}

// TestInvariantsHoldTurnstile drives the three dyadic sketches and the
// OLS snapshot through a strict insert/delete workload.
func TestInvariantsHoldTurnstile(t *testing.T) {
	const bits = 10
	rng := xhash.NewSplitMix64(7)
	sketches := map[string]*DyadicSketch{
		"DCM":  NewDCM(0.05, bits, DyadicConfig{Seed: 3}),
		"DCS":  NewDCS(0.05, bits, DyadicConfig{Seed: 3}),
		"DRSS": NewDRSS(0.05, bits, DyadicConfig{Seed: 3}),
	}
	live := make([]uint64, 0, 4096)
	for i := 0; i < 6000; i++ {
		if len(live) > 0 && rng.Uint64n(3) == 0 {
			j := int(rng.Uint64n(uint64(len(live))))
			x := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			for _, s := range sketches {
				s.Delete(x)
			}
		} else {
			x := rng.Uint64n(1 << bits)
			live = append(live, x)
			for _, s := range sketches {
				s.Insert(x)
			}
		}
		if i%997 == 0 {
			for name, s := range sketches {
				if err := CheckInvariants(s); err != nil {
					t.Fatalf("%s at step %d: %v", name, i, err)
				}
			}
		}
	}
	for name, s := range sketches {
		if err := CheckInvariants(s); err != nil {
			t.Errorf("%s final: %v", name, err)
		}
		p := PostProcess(s, 0)
		if err := CheckInvariants(p); err != nil {
			t.Errorf("Post over %s: %v", name, err)
		}
	}
}

// TestInvariantsHoldAcrossMerges checks the mergeable summaries: merge
// chains must preserve the deep structure, not just query accuracy.
func TestInvariantsHoldAcrossMerges(t *testing.T) {
	rng := xhash.NewSplitMix64(11)

	qd := NewQDigest(0.02, 12)
	r := NewRandom(0.05, rng.Next())
	k := NewKLL(0.05, rng.Next())
	for part := 0; part < 8; part++ {
		qd2 := NewQDigest(0.02, 12)
		r2 := NewRandom(0.05, rng.Next())
		k2 := NewKLL(0.05, rng.Next())
		m := int(1 + rng.Uint64n(3000)) // uneven parts leave partial buffers
		for i := 0; i < m; i++ {
			x := rng.Uint64n(1 << 12)
			qd2.Update(x)
			r2.Update(x)
			k2.Update(x)
		}
		qd.Merge(qd2)
		r.Merge(r2)
		k.Merge(k2)
		for name, s := range map[string]Checkable{"QDigest": qd, "Random": r, "KLL": k} {
			if err := CheckInvariants(s); err != nil {
				t.Fatalf("%s after merge %d: %v", name, part, err)
			}
		}
	}
}

// TestInvariantsDetectCorruption makes sure the sanitizer actually fires:
// a deliberately corrupted summary must report a violation. The
// corruption path goes through the codec (flip bytes of a marshaled
// digest until Invariants complains) so no test-only mutator is needed.
func TestInvariantsDetectCorruption(t *testing.T) {
	d := NewQDigest(0.05, 8)
	for i := 0; i < 1000; i++ {
		d.Update(uint64(i % 256))
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Single-bit flips keep most varints decodable; a flipped node weight
	// or count must then break weight conservation.
	found := false
	for off := 0; off < len(blob) && !found; off++ {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 1
		var d2 QDigest
		if err := d2.UnmarshalBinary(mut); err != nil {
			continue // codec rejected the corruption: also acceptable
		}
		if CheckInvariants(&d2) != nil {
			found = true
		}
	}
	if !found {
		t.Error("no byte flip produced a summary the sanitizer rejects; checks may be vacuous")
	}
}

// TestSamplerIsCheapWhenDisabled documents the untagged contract: the
// sampler must not invoke Invariants at all without -tags sqcheck.
func TestSamplerWiring(t *testing.T) {
	s := NewGKArray(0.01)
	ck := invariant.Every(8)
	for i := 0; i < 100; i++ {
		s.Update(uint64(i))
		if err := ck.Check(s); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if invariant.Enabled {
		t.Log("sqcheck sanitizer active")
	}
}
