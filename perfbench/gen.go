package main

import (
	"bytes"
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
)

// The trace-replay workload's shape. Only the addresses of the random
// reads depend on the seed, so every seed costs the simulator the same
// amount of work and seeds differ only in which heap lines they touch.
const (
	genHeapBytes  = 8 * arch.MB // remapped heap under seeded random reads
	genHeapAlign  = 4 * arch.MB // lets the remap build the largest superpages
	genSweepBytes = arch.MB     // sbrk'd buffer under sequential store sweeps
	genPairs      = 1 << 18     // one random read beside one sequential store
	genStepEvery  = 8           // pairs between instruction batches
	genStepInstrs = 24          // non-memory instructions per batch
)

// traceRecordBytes is the encoded size of one trace v1 record (kind,
// size and two 64-bit operands), used to size the buffer up front.
const traceRecordBytes = 18

// genTrace writes the trace-replay workload as a trace v1 stream and
// reads it back as records. The allocations go through trace.Recorder
// over a functional workload.MemEnv, which lays out regions exactly as
// the simulated VM does, so the references written beside them land in
// the regions the replayed allocations create.
func genTrace(seed uint64) ([]trace.Record, error) {
	const records = 3 + 2*genPairs + genPairs/genStepEvery
	var buf bytes.Buffer
	buf.Grow(6 + records*traceRecordBytes) // 6-byte header
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	layout := &trace.Recorder{Env: workload.NewMemEnv(), W: tw}
	heap := uint64(layout.AllocAligned("heap", genHeapBytes, genHeapAlign, 0))
	layout.Remap(arch.VAddr(heap), genHeapBytes)
	out := uint64(layout.Sbrk(genSweepBytes))

	rng := workload.NewRNG(seed)
	for i := 0; i < genPairs; i++ {
		tw.Write(trace.Record{Kind: trace.KindLoad, Size: 8, A: heap + uint64(rng.Intn(genHeapBytes/8))*8})
		tw.Write(trace.Record{Kind: trace.KindStore, Size: 8, A: out + uint64(i*8%genSweepBytes)})
		if (i+1)%genStepEvery == 0 {
			tw.Write(trace.Record{Kind: trace.KindStep, A: genStepInstrs})
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	tr, err := trace.NewReader(&buf)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	recs := make([]trace.Record, tw.Records())
	if n, err := tr.ReadBatch(recs); err != nil || n != len(recs) {
		return nil, fmt.Errorf("gen: read back %d of %d records: %v", n, len(recs), err)
	}
	return recs, nil
}
