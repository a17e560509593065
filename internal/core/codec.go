package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrCorrupt is the shared sentinel wrapped by every decoding failure in
// the library: truncated input, hostile length prefixes, out-of-range
// parameters, inconsistent structure. Callers — most importantly the
// checkpoint recovery manager — test for it with errors.Is to distinguish
// "this encoding is bad" from environmental errors (I/O, permissions).
var ErrCorrupt = errors.New("corrupt encoding")

// Corruptf builds a decoding error wrapping ErrCorrupt. Every summary
// codec reports malformed input through it so corruption is uniformly
// detectable with errors.Is(err, core.ErrCorrupt).
func Corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

// Encoder builds the compact binary encodings used by the summaries'
// MarshalBinary implementations: varint-coded integers with
// length-prefixed slices. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// EncoderFrom returns an Encoder that appends onto dst, so a caller
// holding a pooled buffer (see EncodeBufPool) can marshal without a
// fresh allocation. The bytes produced are identical to a zero-value
// Encoder's — only the backing storage differs.
func EncoderFrom(dst []byte) Encoder { return Encoder{buf: dst} }

// AppendMarshaler is the append-flavored marshal contract the summary
// codecs implement alongside encoding.BinaryMarshaler: AppendBinary
// appends the same bytes MarshalBinary would return onto dst and
// returns the extended slice. It lets the checkpoint path reuse pooled
// buffers instead of allocating a payload per generation.
type AppendMarshaler interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// EncodeBufPool recycles encode scratch buffers (as *[]byte) across
// marshal and frame-building calls: the checkpoint layer's frames and
// the sharded codec's per-shard payloads both draw from it, so
// steady-state checkpointing of an unchanged topology is
// allocation-flat. Every Get must pair with a Put in the same function:
// a lost Put reads as an extra allocation per save in the root
// package's TestSteadyStateAllocations.
var EncodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zig-zag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends a float64 as its IEEE 754 bits.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a single byte flag.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// U64s appends a length-prefixed slice of unsigned varints.
func (e *Encoder) U64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// I64s appends a length-prefixed slice of signed varints.
func (e *Encoder) I64s(vs []int64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Blob appends a length-prefixed raw byte slice (e.g. a nested
// encoding).
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// UvarintLen returns the encoded size of v as an unsigned varint, so
// frame assemblers can preallocate exactly.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decoder reads an Encoder's output. Errors are sticky: after the first
// failure every read returns a zero value, and Err reports the cause —
// callers validate once at the end.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder wraps a buffer.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = Corruptf("core: truncated input reading %s", what)
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// I64 reads a signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// F64 reads a float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Bool reads a byte flag.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail("bool")
		return false
	}
	raw := d.buf[0]
	d.buf = d.buf[1:]
	return raw != 0
}

// maxDecodeLen bounds length prefixes so corrupt input cannot trigger
// huge allocations.
const maxDecodeLen = 1 << 30

// Len reads a length prefix with sanity bounds.
func (d *Decoder) Len() int {
	n := d.U64()
	if n > maxDecodeLen {
		d.fail("length prefix")
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed slice. The allocation is bounded by the
// remaining input: every element costs at least one encoded byte, so a
// hostile length prefix larger than the buffer is rejected before any
// memory is reserved for it.
func (d *Decoder) U64s() []uint64 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > len(d.buf) {
		d.fail("u64 slice length")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// I64s reads a length-prefixed slice, with the same input-length bound
// as U64s.
func (d *Decoder) I64s() []int64 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > len(d.buf) {
		d.fail("i64 slice length")
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Blob reads a length-prefixed raw byte slice.
func (d *Decoder) Blob() []byte {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.fail("blob")
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// Remaining reports unread bytes; round-trip tests use it to assert the
// encoding was consumed exactly.
func (d *Decoder) Remaining() int { return len(d.buf) }
