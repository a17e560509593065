package main

import "streamquantiles/internal/sharded"

// The parallel path (BENCH_parallel.json) measures multi-core write
// scaling through the per-goroutine writer handles: w writers, each with
// its own AcquireWriter handle, feed a w-shard container
// element-at-a-time — the placement the sharded layer was built for —
// against one writer doing the same work. Handle slots are issued
// round-robin, so the w handles land on w distinct shards.
func measureParallel(m *meter, data []uint64) {
	ws := []int{2, 4}
	for _, tc := range ingestCash {
		m.sweep("parallel/writers", tc.name, ws, func(w int) {
			s, err := sharded.NewCashRegister(w, tc.fresh)
			check(err)
			inParallel(data, w, func(part []uint64) {
				h := s.AcquireWriter()
				defer h.Close()
				for _, x := range part {
					h.Update(x)
				}
			})
		})
	}
}
