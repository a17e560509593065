package freqsketch

import (
	"fmt"

	"streamquantiles/internal/core"
)

// The sketches are linear, so two instances built with the same
// dimensions and seed (hence identical hash functions) merge by adding
// their counter arrays — the mergeability that underpins distributed
// turnstile summaries. They serialize as (version, w, d, seed, rows):
// hash functions are reconstructed from the seed, never stored.

const (
	codecCountMin    = 0x01
	codecCountSketch = 0x02
	codecRSS         = 0x03
	codecVersion     = 1
)

func marshalCommon(dst []byte, kind byte, w, d int, seed uint64, rows [][]int64) []byte {
	e := core.EncoderFrom(dst)
	e.U64(codecVersion)
	e.U64(uint64(kind))
	e.U64(uint64(w))
	e.U64(uint64(d))
	e.U64(seed)
	for _, row := range rows {
		e.I64s(row)
	}
	return e.Bytes()
}

func unmarshalCommon(kind byte, data []byte) (w, d int, seed uint64, rows [][]int64, err error) {
	dec := core.NewDecoder(data)
	if v := dec.U64(); v != codecVersion && dec.Err() == nil {
		return 0, 0, 0, nil, core.Corruptf("freqsketch: unsupported encoding version %d", v)
	}
	if k := dec.U64(); k != uint64(kind) && dec.Err() == nil {
		return 0, 0, 0, nil, core.Corruptf("freqsketch: encoding is for sketch kind %d, want %d", k, kind)
	}
	w = int(dec.U64())
	d = int(dec.U64())
	seed = dec.U64()
	if dec.Err() == nil && (w < 1 || d < 1 || w > 1<<28 || d > 1<<10) {
		return 0, 0, 0, nil, core.Corruptf("freqsketch: implausible dimensions w=%d d=%d", w, d)
	}
	for i := 0; i < d && dec.Err() == nil; i++ {
		rows = append(rows, dec.I64s())
	}
	if err := dec.Err(); err != nil {
		return 0, 0, 0, nil, err
	}
	if dec.Remaining() != 0 {
		return 0, 0, 0, nil, core.Corruptf("freqsketch: %d trailing bytes", dec.Remaining())
	}
	return w, d, seed, rows, nil
}

func checkRows(rows [][]int64, want int) error {
	for i, row := range rows {
		if len(row) != want {
			return core.Corruptf("freqsketch: row %d has %d counters, want %d", i, len(row), want)
		}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (cm *CountMin) MarshalBinary() ([]byte, error) { return cm.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler: the same bytes as
// MarshalBinary, appended onto dst so pooled buffers can be reused.
func (cm *CountMin) AppendBinary(dst []byte) ([]byte, error) {
	return marshalCommon(dst, codecCountMin, cm.w, cm.d, cm.seed, cm.rows), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state.
func (cm *CountMin) UnmarshalBinary(data []byte) error {
	w, d, seed, rows, err := unmarshalCommon(codecCountMin, data)
	if err != nil {
		return err
	}
	if err := checkRows(rows, w); err != nil {
		return err
	}
	*cm = *NewCountMin(w, d, seed)
	for i := range rows {
		copy(cm.rows[i], rows[i])
	}
	return nil
}

// Merge adds other's counters into cm. Both sketches must share
// dimensions and seed (identical hash functions).
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.w != other.w || cm.d != other.d || cm.seed != other.seed {
		return fmt.Errorf("freqsketch: cannot merge CountMin(w=%d,d=%d,seed=%d) with (w=%d,d=%d,seed=%d)",
			cm.w, cm.d, cm.seed, other.w, other.d, other.seed)
	}
	addRows(cm.rows, other.rows)
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (cs *CountSketch) MarshalBinary() ([]byte, error) { return cs.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler.
func (cs *CountSketch) AppendBinary(dst []byte) ([]byte, error) {
	return marshalCommon(dst, codecCountSketch, cs.w, cs.d, cs.seed, cs.rows), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	w, d, seed, rows, err := unmarshalCommon(codecCountSketch, data)
	if err != nil {
		return err
	}
	if err := checkRows(rows, w); err != nil {
		return err
	}
	*cs = *NewCountSketch(w, d, seed)
	for i := range rows {
		copy(cs.rows[i], rows[i])
	}
	return nil
}

// Merge adds other's counters into cs; dimensions and seed must match.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.w != other.w || cs.d != other.d || cs.seed != other.seed {
		return fmt.Errorf("freqsketch: cannot merge mismatched CountSketch instances")
	}
	addRows(cs.rows, other.rows)
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *RSS) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler.
func (r *RSS) AppendBinary(dst []byte) ([]byte, error) {
	return marshalCommon(dst, codecRSS, r.w, r.d, r.seed, r.rows), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (r *RSS) UnmarshalBinary(data []byte) error {
	w, d, seed, rows, err := unmarshalCommon(codecRSS, data)
	if err != nil {
		return err
	}
	if err := checkRows(rows, 2*w); err != nil {
		return err
	}
	*r = *NewRSS(w, d, seed)
	for i := range rows {
		copy(r.rows[i], rows[i])
	}
	return nil
}

// Merge adds other's counters into r; dimensions and seed must match.
func (r *RSS) Merge(other *RSS) error {
	if r.w != other.w || r.d != other.d || r.seed != other.seed {
		return fmt.Errorf("freqsketch: cannot merge mismatched RSS instances")
	}
	addRows(r.rows, other.rows)
	return nil
}

// Reset zeroes cm's counters, keeping its dimensions and hash
// functions: the result equals a freshly built sketch with the same
// seed, ready to absorb merges again.
func (cm *CountMin) Reset() { clearRows(cm.rows) }

// Reset zeroes cs's counters, keeping its dimensions and hash functions.
func (cs *CountSketch) Reset() { clearRows(cs.rows) }

// Reset zeroes r's counters, keeping its dimensions and hash functions.
func (r *RSS) Reset() { clearRows(r.rows) }

// AddCounters adds src into dst element-wise; src must be at least as
// long as dst. It is the one kernel behind every linear merge (the
// three sketches here and the dyadic exact levels): re-slicing src to
// dst's length lets the compiler drop the bounds check from the loop.
func AddCounters(dst, src []int64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// addRows adds every row of src into the matching row of dst.
func addRows(dst, src [][]int64) {
	for i, row := range dst {
		AddCounters(row, src[i])
	}
}

// clearRows zeroes every row.
func clearRows(rows [][]int64) {
	for _, row := range rows {
		clear(row)
	}
}
