// Package invariant is the runtime sanitizer of the library: every
// summary type exposes an Invariants() error method performing the deep
// structural checks its accuracy proof rests on (GK's g+Δ ≤ ⌊2εn⌋ bound,
// q-digest's weight conservation, KLL's exact level-weight accounting,
// dyadic per-level additivity, …), and this package provides the shared
// plumbing for invoking them.
//
// Check runs a summary's deep checks unconditionally — tests call it at
// natural checkpoints. Sampler (built with Every) amortizes the cost over
// a hot loop and is compiled down to a no-op counter bump unless the
// build tag "sqcheck" is set, so fuzz harnesses can sprinkle checks into
// every Update without slowing untagged builds:
//
//	ck := invariant.Every(64)
//	for _, x := range stream {
//		s.Update(x)
//		if err := ck.Check(s); err != nil {
//			t.Fatal(err)
//		}
//	}
//
// The root package's TestRegistryIsComplete and
// TestEverySummaryImplementsCheckable enforce that every summary type
// registered in quantiles.go implements Checkable.
package invariant

// Checkable is implemented by every summary in the library: Invariants
// re-verifies the structural properties the summary's error guarantee is
// proved from and reports the first violation found. A nil return means
// the structure is sound; it says nothing about accuracy against the
// stream (the brute-force tests cover that).
type Checkable interface {
	Invariants() error
}

// Check runs c's deep invariant checks unconditionally and returns the
// first violation, or nil. It ignores the sqcheck build tag; use a
// Sampler inside hot loops.
func Check(c Checkable) error {
	return c.Invariants()
}

// Sampler invokes deep checks on every n-th call, and only when the
// build tag "sqcheck" is set. The zero value checks never; build one
// with Every.
type Sampler struct {
	every uint64
	calls uint64
}

// Every returns a Sampler that runs Invariants once per n calls to its
// Check method under -tags sqcheck, and never otherwise. n < 1 is
// treated as 1 (check on every call).
func Every(n int) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{every: uint64(n)}
}

// Check counts one call and, when the sampler is due and the sqcheck tag
// is on, runs c.Invariants. It returns nil on off-cycle calls and in
// untagged builds.
func (s *Sampler) Check(c Checkable) error {
	if !Enabled || s.every == 0 {
		return nil
	}
	s.calls++
	if s.calls%s.every != 0 {
		return nil
	}
	return c.Invariants()
}
