// Package streamquantiles computes approximate quantiles over data
// streams in small space, reproducing the algorithm suite of
// "Quantiles over data streams: an experimental study" (SIGMOD 2013;
// extended in The VLDB Journal 25(4), 2016) by Wang, Luo, Yi and Cormode.
//
// # Models
//
// In the cash-register model elements only arrive; the summaries are
// GKAdaptive, GKTheory and GKArray (deterministic, comparison-based),
// FastQDigest (deterministic, fixed-universe, mergeable), and MRL99 and
// Random (randomized sampling). In the turnstile model elements are also
// deleted; the summaries are DCM, DCS and DRSS (randomized, fixed
// universe), with an optional OLS post-processing step (Post) that
// sharpens DCS estimates at query time.
//
// # Guarantee
//
// Every summary built with error parameter ε answers any φ-quantile with
// rank error at most εn — deterministically for the GK family and
// q-digest, with constant probability (simultaneously over all queries)
// for the randomized ones, where the observed error is in practice far
// below ε (see EXPERIMENTS.md).
//
// # Choosing an algorithm
//
// Following the study's conclusions (§4.2.6, §4.3.7): use Random when a
// fixed space budget matters and probabilistic guarantees suffice;
// GKArray for a deterministic guarantee at high throughput; FastQDigest
// when summaries must merge (sensor aggregation); and DCS+Post whenever
// the stream contains deletions.
//
// # Quick start
//
//	s := streamquantiles.NewGKArray(0.001)
//	for _, v := range latenciesMicros {
//		s.Update(v)
//	}
//	p99 := s.Quantile(0.99)
//
// All elements are uint64 keys. For float64 data use Float64Key /
// KeyFloat64, an order-preserving bijection (IEEE 754 footnote of the
// paper); for signed integers use Int64Key / KeyInt64.
package streamquantiles

import (
	"streamquantiles/internal/core"
	"streamquantiles/internal/dyadic"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/invariant"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/mrl"
	"streamquantiles/internal/multipass"
	"streamquantiles/internal/ols"
	"streamquantiles/internal/qdigest"
	"streamquantiles/internal/randalg"
	"streamquantiles/internal/window"
)

// Summary is the query interface shared by every quantile summary: the
// current count n, estimated ranks, φ-quantiles, and the summary's size
// under the paper's 4-bytes-per-word accounting.
type Summary = core.Summary

// CashRegister is a Summary over an insert-only stream.
type CashRegister = core.CashRegister

// Turnstile is a Summary over a stream of insertions and deletions.
type Turnstile = core.Turnstile

// ErrEmpty is the panic value of quantile queries on empty summaries.
var ErrEmpty = core.ErrEmpty

// Checkable is implemented by every summary type in this package: the
// Invariants method re-verifies the deep structural properties the
// summary's error guarantee is proved from (GK's g+Δ ≤ ⌊2εn⌋ capacity,
// q-digest's weight conservation, KLL's exact level-weight accounting,
// the dyadic levels' additivity, …) and reports the first violation.
// Production code never needs it; tests, the sqcheck-tagged fuzz
// harnesses, and debugging sessions do. TestRegistryIsComplete and
// TestEverySummaryImplementsCheckable enforce that every summary type
// registered here implements it.
type Checkable = invariant.Checkable

// CheckInvariants runs the deep structural self-checks of a summary and
// returns the first violation found, or nil.
func CheckInvariants(s Checkable) error { return invariant.Check(s) }

// GKAdaptive is the heuristic Greenwald–Khanna variant (heap-driven
// tuple removal): the most space-efficient deterministic summary.
type GKAdaptive = gk.Adaptive

// GKTheory is the original Greenwald–Khanna algorithm with the proven
// O((1/ε)·log(εn)) space bound.
type GKTheory = gk.Theory

// GKArray is the buffered, array-based GK variant introduced by the
// journal version of the paper: same summary, much faster updates.
type GKArray = gk.Array

// QDigest is the fixed-universe q-digest: the only deterministic
// mergeable summary in the suite.
type QDigest = qdigest.Digest

// MRL99 is the randomized Manku–Rajagopalan–Lindsay summary.
type MRL99 = mrl.MRL99

// Random is the paper's simplified randomized summary — the best
// randomized algorithm in the study, using O((1/ε)·log^1.5(1/ε)) space.
type Random = randalg.Random

// DyadicSketch is a turnstile summary over a fixed universe: one
// frequency sketch per dyadic level. Its Kind selects DCM, DCS or DRSS.
type DyadicSketch = dyadic.Sketch

// DyadicConfig tunes the per-level sketches of a DyadicSketch; the zero
// value selects the paper's defaults (d = 7, width from ε and log u).
type DyadicConfig = dyadic.Config

// Post is the OLS-corrected snapshot of a DyadicSketch (the paper's
// §3.2): build it with PostProcess after loading the stream and query it
// in place of the raw sketch for 60–80% lower error on DCS.
type Post = ols.Post

// NewGKAdaptive returns an empty GKAdaptive summary with error ε.
func NewGKAdaptive(eps float64) *GKAdaptive { return gk.NewAdaptive(eps) }

// NewGKTheory returns an empty GKTheory summary with error ε.
func NewGKTheory(eps float64) *GKTheory { return gk.NewTheory(eps) }

// NewGKArray returns an empty GKArray summary with error ε.
func NewGKArray(eps float64) *GKArray { return gk.NewArray(eps) }

// NewQDigest returns an empty q-digest with error ε over [0, 2^bits).
func NewQDigest(eps float64, bits int) *QDigest { return qdigest.New(eps, bits) }

// NewMRL99 returns an empty MRL99 summary with error ε; seed drives its
// sampling and collapse randomness (a fixed seed is fully reproducible).
func NewMRL99(eps float64, seed uint64) *MRL99 { return mrl.New(eps, seed) }

// NewRandom returns an empty Random summary with error ε; seed drives
// its sampling and merge randomness.
func NewRandom(eps float64, seed uint64) *Random { return randalg.New(eps, seed) }

// NewDCM returns an empty Dyadic Count-Min turnstile summary with error
// ε over [0, 2^bits).
func NewDCM(eps float64, bits int, cfg DyadicConfig) *DyadicSketch {
	return dyadic.New(dyadic.DCM, eps, bits, cfg)
}

// NewDCS returns an empty Dyadic Count-Sketch turnstile summary — the
// study's recommended turnstile algorithm — with error ε over [0, 2^bits).
func NewDCS(eps float64, bits int, cfg DyadicConfig) *DyadicSketch {
	return dyadic.New(dyadic.DCS, eps, bits, cfg)
}

// NewDRSS returns an empty dyadic random-subset-sum summary; provided
// for completeness, it is dominated by DCM and DCS.
func NewDRSS(eps float64, bits int, cfg DyadicConfig) *DyadicSketch {
	return dyadic.New(dyadic.DRSS, eps, bits, cfg)
}

// GKBiased answers biased (relative-rank-error) quantile queries: the
// error at the φ-quantile is at most ε·φn rather than εn, so low
// quantiles are tracked proportionally more precisely (Cormode et al.,
// PODS 2006 — one of the problem variations surveyed in the paper's
// introduction).
type GKBiased = gk.Biased

// NewGKBiased returns an empty biased-quantile summary with relative
// error parameter eps.
func NewGKBiased(eps float64) *GKBiased { return gk.NewBiased(eps) }

// Windowed answers quantile queries over the most recent W stream
// elements, forgetting older data (the sliding-window variation of
// Arasu and Manku, PODS 2004): an ε-approximate quantile over a window
// of W′ elements for some W ≤ W′ < W(1 + ε/2).
type Windowed = window.Windowed

// NewWindowed returns a sliding-window summary with error eps over the
// last w elements; seed drives its randomized sub-summaries.
func NewWindowed(eps float64, w int64, seed uint64) *Windowed {
	return window.New(eps, w, seed)
}

// PostProcess runs the OLS post-processing of §3.2 on a dyadic sketch
// and returns the corrected snapshot. eta is the truncation factor of
// the tree-extraction step; pass 0 for the paper's sweet spot η = 0.1.
func PostProcess(s *DyadicSketch, eta float64) *Post { return ols.Process(s, eta) }

// KLL is the Karnin–Lang–Liberty sketch (FOCS 2016): the optimal-space
// successor of the buffer hierarchy the paper's Random algorithm belongs
// to — included as the epilogue of the study's lineage. Mergeable.
type KLL = kll.Sketch

// NewKLL returns an empty KLL sketch with error parameter eps; seed
// drives its compaction coin flips.
func NewKLL(eps float64, seed uint64) *KLL { return kll.New(eps, seed) }

// ReplaySource is a stream that can be scanned from the start repeatedly,
// the input model of exact multipass selection (Munro–Paterson style).
type ReplaySource = multipass.Source

// SliceSource adapts an in-memory slice as a ReplaySource.
type SliceSource = multipass.SliceSource

// SelectStats reports the pass and candidate counts of an exact
// selection.
type SelectStats = multipass.Stats

// SelectExact returns the element of exact rank k using at most memory
// words of working storage and maxPasses passes over the re-readable
// source — the limited-memory exact selection of Munro and Paterson
// (1980) that opens the paper's history, realized with a GK summary as
// the per-pass filter. Memory trades against passes: Θ(n^(1/p)) words
// suffice for p passes.
func SelectExact(src ReplaySource, k int64, memory, maxPasses int) (uint64, SelectStats, error) {
	return multipass.Select(src, k, memory, maxPasses)
}

// SelectExactQuantile returns the exact φ-quantile of a re-readable
// source under the same budgets.
func SelectExactQuantile(src ReplaySource, phi float64, memory, maxPasses int) (uint64, SelectStats, error) {
	return multipass.SelectQuantile(src, phi, memory, maxPasses)
}

// Quantiles extracts one quantile per fraction. It is QuantileBatch
// under the name the package has always exported.
func Quantiles(s Summary, phis []float64) []uint64 { return core.Quantiles(s, phis) }

// QuantileBatch extracts one quantile per fraction in a single pass
// over the summary's state when it implements the batch contract
// (every summary in this package does — see README "Query path"),
// falling back to one full query walk per fraction otherwise.
func QuantileBatch(s Summary, phis []float64) []uint64 { return core.QuantileBatch(s, phis) }

// RankBatch estimates every probe's rank in one sweep, under the same
// dispatch rule as QuantileBatch.
func RankBatch(s Summary, xs []uint64) []int64 { return core.RankBatch(s, xs) }

// EvenPhis returns the fractions ε, 2ε, …, 1−ε used throughout the
// paper's evaluation protocol.
func EvenPhis(eps float64) []float64 { return core.EvenPhis(eps) }
