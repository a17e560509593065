// Package gk trips SQ009: it sits at one of the
// columnar package paths and declares a slice of an all-numeric tuple
// struct — the array-of-structs shape the SoA refactor removed. The
// two-field pair type and the struct holding a slice stay legal.
package gk

// tup is a three-column numeric tuple; []tup is the violation.
type tup struct {
	v    uint64
	g, d int64
}

// pair has only two numeric fields: a value-weight exchange pair, not a
// table, so []pair below is allowed.
type pair struct {
	v uint64
	w int64
}

// cols is the compliant layout for what []tup stores.
type cols struct {
	vals []uint64
	gaps []int64
	dels []int64
}

// S mixes one violating field with the allowed shapes.
type S struct {
	tuples []tup // SQ009: interleaved tuple rows
	pairs  []pair
	c      cols
}
