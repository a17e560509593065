package dyadic

import (
	"fmt"

	"streamquantiles/internal/core"
	"streamquantiles/internal/freqsketch"
)

// The dyadic summaries are linear — every level is either an exact
// counter array or a linear sketch — so same-configuration instances
// merge by addition, and a summary serializes as its configuration plus
// per-level state. Hash functions are reconstructed from the stored
// seed, exactly as at construction time.

const dyadicCodecVersion = 1

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler: the same bytes as
// MarshalBinary, appended onto dst so pooled buffers can be reused.
func (s *Sketch) AppendBinary(dst []byte) ([]byte, error) {
	e := core.EncoderFrom(dst)
	e.U64(dyadicCodecVersion)
	e.U64(uint64(s.kind))
	e.U64(uint64(s.bits))
	e.F64(s.eps)
	e.U64(uint64(s.w))
	e.U64(uint64(s.d))
	e.U64(s.cfg.Seed)
	e.Bool(s.cfg.NoExactLevels)
	e.I64(s.n)
	for l := range s.lvls {
		if s.lvls[l].exact != nil {
			e.Bool(true)
			e.I64s(s.lvls[l].exact)
			continue
		}
		e.Bool(false)
		blob, err := s.lvls[l].sk.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("dyadic: level %d: %w", l, err)
		}
		e.Blob(blob)
	}
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state. The encoding must have been produced by the same
// library version's MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	dec := core.NewDecoder(data)
	if v := dec.U64(); v != dyadicCodecVersion && dec.Err() == nil {
		return core.Corruptf("dyadic: unsupported encoding version %d", v)
	}
	kind := Kind(dec.U64())
	bits := int(dec.U64())
	eps := dec.F64()
	w := int(dec.U64())
	d := int(dec.U64())
	seed := dec.U64()
	noExact := dec.Bool()
	n := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	// Positive-form comparisons so NaN (which fails every comparison)
	// is rejected rather than slipping through to New's panic.
	if bits < 1 || bits > 62 || !(eps > 0 && eps < 1) {
		return core.Corruptf("dyadic: implausible encoded parameters bits=%d eps=%v", bits, eps)
	}
	// New panics on nonsense configurations and eagerly allocates up to
	// bits levels of w×d counters, so hostile encodings must be rejected
	// here: an unknown kind or oversized dimensions never reach the
	// constructor. The per-level product bound keeps the constructor's
	// allocation (which a tiny hostile encoding would otherwise control)
	// within the footprint of any sketch this library can actually run.
	if kind != DCM && kind != DCS && kind != DRSS {
		return core.Corruptf("dyadic: unknown sketch kind %d", int(kind))
	}
	if w < 1 || w > 1<<24 || d < 1 || d > 256 || int64(w)*int64(d) > 1<<22 {
		return core.Corruptf("dyadic: implausible sketch dimensions w=%d d=%d", w, d)
	}

	ns := New(kind, eps, bits, Config{Width: w, Depth: d, Seed: seed, NoExactLevels: noExact})
	ns.n = n
	for l := 0; l < bits; l++ {
		isExact := dec.Bool()
		if dec.Err() != nil {
			return dec.Err()
		}
		if isExact != (ns.lvls[l].exact != nil) {
			return core.Corruptf("dyadic: level %d exactness mismatch in encoding", l)
		}
		if isExact {
			vals := dec.I64s()
			if dec.Err() != nil {
				return dec.Err()
			}
			if len(vals) != len(ns.lvls[l].exact) {
				return core.Corruptf("dyadic: level %d has %d exact counters, want %d",
					l, len(vals), len(ns.lvls[l].exact))
			}
			copy(ns.lvls[l].exact, vals)
			continue
		}
		blob := dec.Blob()
		if dec.Err() != nil {
			return dec.Err()
		}
		if err := ns.lvls[l].sk.(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("dyadic: level %d: %w", l, err)
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return core.Corruptf("dyadic: %d trailing bytes", dec.Remaining())
	}
	*s = *ns
	return nil
}

// Merge adds other into s. Both summaries must have been built with the
// same kind, universe, dimensions and seed, so their levels share hash
// functions; merging then reduces to adding counters level-wise. The
// result summarizes the union of both streams — the distributed
// aggregation pattern of linear sketches.
func (s *Sketch) Merge(other *Sketch) error {
	if s.kind != other.kind || s.bits != other.bits || s.w != other.w ||
		s.d != other.d || s.cfg.Seed != other.cfg.Seed ||
		s.cfg.NoExactLevels != other.cfg.NoExactLevels {
		return fmt.Errorf("dyadic: cannot merge differently configured sketches")
	}
	for l := range s.lvls {
		if s.lvls[l].exact != nil {
			freqsketch.AddCounters(s.lvls[l].exact, other.lvls[l].exact)
			continue
		}
		var err error
		switch a := s.lvls[l].sk.(type) {
		case *freqsketch.CountMin:
			err = a.Merge(other.lvls[l].sk.(*freqsketch.CountMin))
		case *freqsketch.CountSketch:
			err = a.Merge(other.lvls[l].sk.(*freqsketch.CountSketch))
		case *freqsketch.RSS:
			err = a.Merge(other.lvls[l].sk.(*freqsketch.RSS))
		default:
			err = fmt.Errorf("dyadic: unmergeable level sketch %T", s.lvls[l].sk)
		}
		if err != nil {
			return fmt.Errorf("dyadic: level %d: %w", l, err)
		}
	}
	s.n += other.n
	return nil
}

// Reset implements core.Linear: it zeroes every level's counters and
// the count, keeping the configuration and hash functions, so s equals
// a freshly built sketch of the same configuration and can absorb a new
// sum of merges.
func (s *Sketch) Reset() {
	for _, lv := range s.lvls {
		if lv.exact != nil {
			clear(lv.exact)
		} else {
			lv.sk.Reset()
		}
	}
	s.n = 0
}
