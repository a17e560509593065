package qdigest

import "streamquantiles/internal/core"

const codecVersion = 1

// MarshalBinary implements encoding.BinaryMarshaler. The encoding is
// deterministic (nodes in ascending id order, the storage order) so
// equal digests encode identically.
func (d *Digest) MarshalBinary() ([]byte, error) { return d.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler: the same bytes as
// MarshalBinary, appended onto dst so pooled buffers can be reused.
func (d *Digest) AppendBinary(dst []byte) ([]byte, error) {
	e := core.EncoderFrom(dst)
	e.U64(codecVersion)
	e.F64(d.eps)
	e.U64(uint64(d.bits))
	e.I64(d.n)
	e.I64(d.nextCmp)
	e.I64(d.compressions)

	e.U64(uint64(d.stored()))
	it := nodeIter{d: d}
	for id, w, ok := it.next(); ok; id, w, ok = it.next() {
		e.U64(id)
		e.I64(w)
	}
	e.U64s(d.buf)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state.
func (d *Digest) UnmarshalBinary(data []byte) error {
	dec := core.NewDecoder(data)
	if v := dec.U64(); v != codecVersion && dec.Err() == nil {
		return core.Corruptf("qdigest: unsupported encoding version %d", v)
	}
	eps := dec.F64()
	bits := int(dec.U64())
	n := dec.I64()
	nextCmp := dec.I64()
	compressions := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	// Positive-form comparisons so NaN (which fails every comparison) is
	// rejected rather than slipping through to New's panic; the ratio
	// bound keeps New's k = ⌈bits/ε⌉ inside int64 (out-of-range
	// float-to-int conversion is undefined in Go).
	if !(eps > 0 && eps < 1) || bits < 1 || bits > maxBits || n < 0 {
		return core.Corruptf("qdigest: implausible encoded parameters eps=%v bits=%d n=%d", eps, bits, n)
	}
	if !(float64(bits)/eps <= 1<<62) {
		return core.Corruptf("qdigest: implausible eps %v for %d universe bits", eps, bits)
	}

	nd := New(eps, bits)
	nd.n = n
	nd.nextCmp = nextCmp
	nd.compressions = compressions
	// Every node takes at least two encoded bytes, which bounds the
	// columns' reservation by the input actually present.
	count := dec.Len()
	if count > dec.Remaining()/2 {
		return core.Corruptf("qdigest: %d nodes in %d bytes", count, dec.Remaining())
	}
	nd.nodes.keys = make([]uint64, 0, count)
	nd.nodes.ws = make([]int64, 0, count)
	for i := 0; i < count && dec.Err() == nil; i++ {
		id := dec.U64()
		w := dec.I64()
		if id < 1 || id >= 2*nd.u {
			return core.Corruptf("qdigest: node id %d outside tree", id)
		}
		if i > 0 && id <= nd.nodes.keys[i-1] {
			return core.Corruptf("qdigest: node id %d after %d: ids not strictly ascending", id, nd.nodes.keys[i-1])
		}
		if w < 0 {
			return core.Corruptf("qdigest: negative node weight %d", w)
		}
		nd.nodes.push(id, w)
	}
	buf := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return core.Corruptf("qdigest: %d trailing bytes", dec.Remaining())
	}
	for _, x := range buf {
		if x >= nd.u {
			return core.Corruptf("qdigest: buffered element %d outside universe", x)
		}
	}
	nd.buf = append(nd.buf, buf...)
	*d = *nd
	return nil
}
