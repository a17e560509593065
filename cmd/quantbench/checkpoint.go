package main

import (
	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/core"
	"streamquantiles/internal/faultio"
	"streamquantiles/internal/gk"
	"streamquantiles/internal/kll"
	"streamquantiles/internal/sharded"
)

// The checkpoint path (BENCH_checkpoint.json) measures durability
// scaling at a fixed 64-shard topology: the fan-out marshal alone, a
// full save (that marshal plus the framed, checksummed write) and a full
// recovery (candidate scan, CRC verification, fan-out decode into a
// fresh container) with p workers against one. All run on an
// in-memory filesystem, so the rows isolate the CPU path from device
// speed. The marshal row is the save fan-out's own gate: the sequential
// write dilutes a lost fan-out in the save row to about the compare
// tolerance on two cores.

// checkpointShards gives every swept worker count parallel work.
const checkpointShards = 64

// checkpointCases are one mergeable family (KLL) and one whose shrink
// freezes rank components (GKArray) — the two shapes the fan-out
// dispatches.
var checkpointCases = []struct {
	name  string
	fresh func() core.CashRegister
}{
	{"kll", func() core.CashRegister { return kll.New(0.001, 7) }},
	{"gkarray", func() core.CashRegister { return gk.NewArray(0.001) }},
}

func measureCheckpoint(m *meter, data []uint64) {
	ps := []int{4, 16, 64}
	for _, tc := range checkpointCases {
		s, err := sharded.NewCashRegister(checkpointShards, tc.fresh)
		check(err)
		forBatches(data, s.UpdateBatch)

		m.sweep("checkpoint/marshal", tc.name, ps, func(p int) {
			_, err := s.MarshalBinaryWorkers(p)
			check(err)
		})

		saves, err := checkpoint.Open("/bench", checkpoint.WithFS(faultio.NewMemFS()))
		check(err)
		m.sweep("checkpoint/save", tc.name, ps, func(p int) {
			blob, err := s.MarshalBinaryWorkers(p)
			check(err)
			_, err = saves.Save("bench", blob)
			check(err)
		})

		mem := faultio.NewMemFS()
		ck, err := checkpoint.Open("/bench", checkpoint.WithFS(mem))
		check(err)
		payload, err := s.MarshalBinaryWorkers(1)
		check(err)
		_, err = ck.Save("bench", payload)
		check(err)
		m.sweep("checkpoint/recover", tc.name, ps, func(p int) {
			target, err := sharded.NewCashRegister(1, tc.fresh)
			check(err)
			blob, _, err := checkpoint.Recover(mem, "/bench", nil)
			check(err)
			check(target.UnmarshalBinaryWorkers(blob, p))
		})
	}
}
