package qdigest

import "fmt"

// Invariants implements invariant.Checkable: the structural q-digest
// properties the (log₂u)·n/k rank-error bound is proved from.
//
//   - Every stored node id addresses a real tree node: 1 ≤ id < 2u.
//   - Ids are strictly ascending in storage order (the columns, with the
//     side run merged into their leaf tail), so each node is stored
//     once, and the side run holds only leaves.
//   - Stored weights are positive (zero-weight nodes are deleted, not
//     kept).
//   - Weight conservation: node weights plus pending buffered updates sum
//     to exactly n.
//   - The digest size property: an interior node (neither the root nor a
//     leaf) never holds more than ⌊n/k⌋ weight. Interior weights are only
//     written by COMPRESS folds, which admit at most the capacity of
//     their pass, and ⌊n/k⌋ only grows afterwards (including across
//     Merge, since ⌊n₁/k⌋ + ⌊n₂/k⌋ ≤ ⌊(n₁+n₂)/k⌋). Leaves and the root
//     legitimately exceed it.
func (d *Digest) Invariants() error {
	if d.n < 0 {
		return fmt.Errorf("qdigest: negative count %d", d.n)
	}
	if d.k < 1 {
		return fmt.Errorf("qdigest: compression factor %d < 1", d.k)
	}
	capacity := d.n / d.k
	for _, id := range d.side.keys {
		if id < d.u {
			return fmt.Errorf("qdigest: side run holds interior node %d", id)
		}
	}
	var sum int64
	var prev uint64
	it := nodeIter{d: d}
	for id, w, ok := it.next(); ok; id, w, ok = it.next() {
		if id < 1 || id >= 2*d.u {
			return fmt.Errorf("qdigest: node id %d outside tree [1, %d)", id, 2*d.u)
		}
		if id <= prev {
			return fmt.Errorf("qdigest: node id %d stored after %d: ids not strictly ascending", id, prev)
		}
		prev = id
		if w < 1 {
			return fmt.Errorf("qdigest: node %d stores non-positive weight %d", id, w)
		}
		if id > 1 && id < d.u && w > capacity {
			return fmt.Errorf("qdigest: interior node %d (level %d) holds %d > ⌊n/k⌋ = %d",
				id, d.level(id), w, capacity)
		}
		sum += w
	}
	if total := sum + int64(len(d.buf)); total != d.n {
		return fmt.Errorf("qdigest: weight not conserved: nodes %d + pending %d != n = %d",
			sum, len(d.buf), d.n)
	}
	return nil
}
