package sim_test

import (
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/workload"
)

// warm brings a system to a steady state: a data region of the given
// number of pages is allocated and touched, and enough instructions
// have retired that the rotating text-page ifetches have populated the
// TLB. After this, the hot loop
// in the alloc tests exercises only hit paths and handled misses — no
// first-touch page faults — which is exactly the regime the zero-alloc
// guarantee covers.
func warm(t *testing.T, cfg sim.Config, pages uint64) (*sim.System, arch.VAddr) {
	t.Helper()
	s := sim.New(cfg)
	base := s.CPU.AllocRegion("alloc-test", pages*arch.PageSize)
	for off := uint64(0); off < pages*arch.PageSize; off += arch.PageSize {
		s.CPU.Store(base+arch.VAddr(off), 8, off)
	}
	s.CPU.Step(10_000) // cycle through every text page at least once
	return s, base
}

// TestHotLoopZeroAllocs pins the engine's allocation contract: once
// warm, Load, Store and Step never touch the heap — with the fast path
// on or off, and with or without an MTLB behind the cache.
func TestHotLoopZeroAllocs(t *testing.T) {
	configs := map[string]sim.Config{
		"base-fast": sim.Default().WithTLB(64),
		"mtlb-fast": sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig()),
	}
	slow := sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig())
	slow.NoFastPath = true
	configs["mtlb-slow"] = slow

	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			s, base := warm(t, cfg, 64)
			i := uint64(0)
			avg := testing.AllocsPerRun(200, func() {
				// A small stride walks several pages and lines, mixing
				// memo hits, memo misses, and TLB-hit slow paths.
				va := base + arch.VAddr((i*264)%(64*arch.PageSize))
				s.CPU.Load(va, 8)
				s.CPU.Store(va, 8, i)
				s.CPU.Step(3)
				i++
			})
			if avg != 0 {
				t.Errorf("hot loop allocates %.1f objects per iteration, want 0", avg)
			}
		})
	}
}

// TestStreamZeroAllocs extends the contract to batched delivery: a
// CPU.Stream call over a fixed Ref array must not allocate either.
func TestStreamZeroAllocs(t *testing.T) {
	s, base := warm(t, sim.Default().WithTLB(64).WithMTLB(core.DefaultMTLBConfig()), 64)
	var refs [16]workload.Ref
	i := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		for j := range refs {
			va := base + arch.VAddr((i*264)%(64*arch.PageSize))
			refs[j] = workload.Ref{VA: va, Val: i, Size: 8, Store: j%3 == 0, Step: 2}
			i++
		}
		s.CPU.Stream(refs[:])
	})
	if avg != 0 {
		t.Errorf("Stream allocates %.1f objects per batch, want 0", avg)
	}
}

// TestMissPathZeroAllocs extends the contract to the TLB miss path: the
// working set is four times a 64-entry TLB and consecutive loads land
// 67 pages apart, so nearly every iteration misses, runs the software miss
// handler and installs over an NRU victim, updating the TLB's index.
func TestMissPathZeroAllocs(t *testing.T) {
	const pages = 256
	s, base := warm(t, sim.Default().WithTLB(64), pages)
	misses := s.CPUTLB.Stats.Misses
	i := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		va := base + arch.VAddr((i*67)%pages*arch.PageSize+(i*8)%arch.PageSize)
		s.CPU.Load(va, 8)
		i++
	})
	if avg != 0 {
		t.Errorf("miss path allocates %.1f objects per iteration, want 0", avg)
	}
	if n := s.CPUTLB.Stats.Misses - misses; n < 150 {
		t.Fatalf("%d TLB misses over 201 iterations: the loop barely exercises the miss path", n)
	}
}
