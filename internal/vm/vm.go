// Package vm implements the operating system's virtual-memory layer: the
// per-process address space, demand paging over 4 KB frames, the software
// TLB miss handler driven by the hashed page table, and — the paper's OS
// contribution — creation of shadow-backed superpages via remap() and a
// modified sbrk() (paper §2.3-§2.5).
//
// All VM operations return the CPU cycles they consumed so the processor
// model can attribute them to the right runtime category. Memory accesses
// made by the kernel itself (page-table probes, zero-fill) run through the
// simulated cache and memory controller, reproducing the paper's
// observation that page tables compete with application data for cache
// space.
package vm

import (
	"errors"
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/core"
	"shadowtlb/internal/kernel"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/mmc"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/ptable"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/tlb"
)

// Address-space layout of the simulated process.
const (
	// TextBase is where program text is mapped (ifetch simulation).
	TextBase arch.VAddr = 0x00400000
	// HeapBase is the start of the sbrk()-managed heap.
	HeapBase arch.VAddr = 0x10000000
	// RegionBase is where explicitly allocated data regions are placed.
	RegionBase arch.VAddr = 0x40000000
)

// ErrNoMTLB is returned when a shadow-memory operation is attempted on a
// system without an MTLB.
var ErrNoMTLB = errors.New("vm: system has no MTLB/shadow memory")

// Superpage records one shadow-backed superpage the OS created.
type Superpage struct {
	VBase  arch.VAddr
	Class  arch.PageSizeClass
	Shadow arch.PAddr
}

// Region is a named virtual address range the OS manages.
type Region struct {
	Name string
	Base arch.VAddr
	Size uint64
	// Superpages are the shadow-backed superpages covering (parts of)
	// the region after a remap.
	Superpages []Superpage
}

// VM is the virtual-memory manager for the (single) simulated process.
type VM struct {
	Dram   *mem.DRAM
	Frames *mem.FrameAlloc
	HPT    *ptable.Table
	MMC    *mmc.MMC
	Cache  *cache.Cache
	CPUTLB *tlb.TLB
	ITLB   *tlb.MicroITLB
	Kernel *kernel.Kernel

	// ShadowAlloc and STable are non-nil only on MTLB systems.
	ShadowAlloc core.ShadowAllocator
	STable      *core.ShadowTable

	// OnShootdown, when set, is invoked after any OS operation that
	// changes an existing virtual→real translation (remap, swap-out,
	// recolor). The simulator wires it to CPU.FlushMemo so the fast-path
	// memo is dropped explicitly, in addition to the stamp and generation
	// checks that already make stale use impossible.
	OnShootdown func()

	// OnOp, when set, fires after each OS mutation completes with the
	// machine in a consistent state: "remap.superpage" (one superpage
	// built), "swap.out", "swap.in" (shadow-fault recovery), and
	// "reclaim" (page-out daemon sweep). The invariant harness audits at
	// these points and the fault injector uses them to time shootdowns;
	// hooks must not call back into VM mutators.
	OnOp func(op string)

	regions   []*Region
	nextVA    arch.VAddr
	heapBrk   arch.VAddr
	heapEnd   arch.VAddr // end of the current sbrk pre-allocated chunk
	sbrkCfg   SbrkConfig
	swapStore map[uint64][]byte // saved page contents by shadow page index

	// Online promotion state (see promote.go).
	promotePolicy PromotePolicy
	promoteState  map[*Region]*promoteState
	promotions    uint64

	// Recoloring state (see recolor.go).
	recolorPool map[uint64][]arch.PAddr
	Recolored   uint64

	// Page-out daemon state (see daemon.go).
	clock    clockPos
	Reclaims uint64

	// Peer TLBs of other processors sharing this address space
	// (multicore). Translation-changing operations purge the affected
	// range from every peer in addition to CPUTLB/ITLB; the IPI cost of
	// doing so is charged by the OnShootdown hook, which the multicore
	// executor points at its shootdown broadcaster.
	peers []peerTLB

	// Observability instruments (see observe.go); nil means disabled
	// and every use is a no-op.
	tl        *obs.Timeline
	remapHist *obs.Histogram

	// Statistics.
	PageFaults     uint64
	TLBMisses      uint64
	SuperpagesMade uint64
	PagesRemapped  uint64
	ShadowFaults   uint64
	SwapOuts       uint64
	SwapIns        uint64
}

// Deps bundles the machine components the VM drives.
type Deps struct {
	Dram        *mem.DRAM
	Frames      *mem.FrameAlloc
	HPT         *ptable.Table
	MMC         *mmc.MMC
	Cache       *cache.Cache
	CPUTLB      *tlb.TLB
	ITLB        *tlb.MicroITLB
	Kernel      *kernel.Kernel
	ShadowAlloc core.ShadowAllocator // nil on conventional systems
	STable      *core.ShadowTable    // nil on conventional systems
}

// New builds the VM layer. It panics if a required component is missing
// or if only one of ShadowAlloc/STable is provided.
func New(d Deps) *VM {
	if d.Dram == nil || d.Frames == nil || d.HPT == nil || d.MMC == nil ||
		d.Cache == nil || d.CPUTLB == nil || d.ITLB == nil || d.Kernel == nil {
		panic("vm: missing required dependency")
	}
	if (d.ShadowAlloc == nil) != (d.STable == nil) {
		panic("vm: ShadowAlloc and STable must be provided together")
	}
	return &VM{
		Dram: d.Dram, Frames: d.Frames, HPT: d.HPT, MMC: d.MMC,
		Cache: d.Cache, CPUTLB: d.CPUTLB, ITLB: d.ITLB, Kernel: d.Kernel,
		ShadowAlloc: d.ShadowAlloc, STable: d.STable,
		nextVA:    RegionBase,
		heapBrk:   HeapBase,
		heapEnd:   HeapBase,
		sbrkCfg:   DefaultSbrkConfig(),
		swapStore: make(map[uint64][]byte),
	}
}

// HasShadow reports whether shadow memory is available.
func (v *VM) HasShadow() bool { return v.STable != nil }

// peerTLB is one remote processor's translation hardware.
type peerTLB struct {
	t  *tlb.TLB
	it *tlb.MicroITLB
}

// AddPeerTLB registers another processor's TLB pair as a consumer of
// this address space. PA-RISC TLBs carry no address-space tags, so the
// kernel must purge the mapped range from every processor that may have
// cached it; after this call remap and recolor do exactly that.
func (v *VM) AddPeerTLB(t *tlb.TLB, it *tlb.MicroITLB) {
	v.peers = append(v.peers, peerTLB{t: t, it: it})
}

// purgePeers removes the virtual range from every peer processor's
// TLB and micro-ITLB. This models the purge executed by the remote
// shootdown handler; the cycle cost is charged by OnShootdown.
func (v *VM) purgePeers(vbase uint64, bytes uint64) {
	for _, p := range v.peers {
		p.t.PurgeRange(vbase, bytes)
		p.it.PurgeIfOverlaps(vbase, bytes)
	}
}

// shootdown notifies the processor model that translations changed.
func (v *VM) shootdown() {
	if v.OnShootdown != nil {
		v.OnShootdown()
	}
}

// notifyOp fires the OnOp hook at a consistent post-mutation point.
func (v *VM) notifyOp(op string) {
	if v.OnOp != nil {
		v.OnOp(op)
	}
}

// Regions returns the regions created so far.
func (v *VM) Regions() []*Region { return v.regions }

// FindRegion returns the region with the given name, or nil.
func (v *VM) FindRegion(name string) *Region {
	for _, r := range v.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// AllocRegion reserves (but does not map) a named virtual range of the
// given size, rounded up to whole pages, and returns it. base addresses
// are assigned sequentially with a page of guard space between regions,
// mirroring how distinct program segments have distinct alignments —
// the reason compress95's equal-length buffers needed 13, 7 and 13
// superpages (paper §3.1).
func (v *VM) AllocRegion(name string, size uint64) *Region {
	base := v.nextVA
	sz := (size + arch.PageSize - 1) &^ uint64(arch.PageMask)
	v.nextVA += arch.VAddr(sz) + arch.PageSize // guard page
	r := &Region{Name: name, Base: base, Size: size}
	v.regions = append(v.regions, r)
	return r
}

// AllocRegionAt reserves a named region at a caller-chosen base, used by
// workloads that reproduce the paper's specific alignments.
func (v *VM) AllocRegionAt(name string, base arch.VAddr, size uint64) *Region {
	r := &Region{Name: name, Base: base, Size: size}
	v.regions = append(v.regions, r)
	return r
}

// AllocRegionAligned reserves a named region whose base is congruent to
// offset modulo align (both powers-of-two-friendly byte counts). The
// paper's superpage counts per program (compress95's 10/13/7/13, radix's
// 14, em3d's 16) are consequences of such alignments (§3.1); workloads
// use this to reproduce them.
func (v *VM) AllocRegionAligned(name string, size, align, offset uint64) *Region {
	base := v.nextVA.AlignUp(align) + arch.VAddr(offset)
	if base < v.nextVA {
		base += arch.VAddr(align)
	}
	sz := (size + arch.PageSize - 1) &^ uint64(arch.PageMask)
	v.nextVA = base + arch.VAddr(sz) + arch.PageSize // guard page
	r := &Region{Name: name, Base: base, Size: size}
	v.regions = append(v.regions, r)
	return r
}

// kernelAccess runs one kernel-mode memory access (page-table probe,
// zero-fill store) through the cache and memory controller, returning
// the stall cycles. Kernel structures are mapped by the wired block TLB
// entry (identity mapping), so no TLB lookup is simulated.
func (v *VM) kernelAccess(pa arch.PAddr, kind arch.AccessKind) stats.Cycles {
	return v.kernelAccessUser(arch.VAddr(pa), pa, kind)
}

// MapPage demand-maps the 4 KB page containing va: allocates a frame,
// zero-fills it through the cache, and installs a 4 KB PTE. It returns
// the cycles consumed. Mapping an already-mapped page is a no-op.
func (v *VM) MapPage(va arch.VAddr) (stats.Cycles, error) {
	vbase := va.PageBase()
	if v.HPT.LookupFast(vbase) != nil {
		return 0, nil
	}
	frame, reclaimCycles, err := v.allocFrameReclaiming()
	if err != nil {
		return reclaimCycles, fmt.Errorf("vm: mapping %v: %w", va, err)
	}
	v.PageFaults++
	c := reclaimCycles + stats.Cycles(v.Kernel.Costs.PageFaultService)

	// Zero-fill through the cache: one store per line. The frame may be
	// recycled, so functional zeroing matters too.
	pbase := arch.FrameToPAddr(frame)
	zero := make([]byte, arch.PageSize)
	v.Dram.Write(pbase, zero)
	const lines = uint64(arch.PageSize / arch.LineSize)
	for i := uint64(0); i < lines; i++ {
		c += stats.Cycles(v.Kernel.Costs.ZeroFillPerLine)
		c += v.kernelAccessUser(vbase+arch.VAddr(i*arch.LineSize), pbase+arch.PAddr(i*arch.LineSize), arch.Write)
	}

	if err := v.HPT.Insert(ptable.PTE{VBase: vbase, Class: arch.Page4K, Target: pbase}); err != nil {
		return c, fmt.Errorf("vm: mapping %v: %w", va, err)
	}
	return c, nil
}

// kernelAccessUser is a kernel-initiated access to a page indexed in the
// cache under va (for user pages, the user virtual address, so the lines
// are found by later user accesses and by remap's flush; for kernel
// structures, the identity-mapped physical address).
func (v *VM) kernelAccessUser(va arch.VAddr, pa arch.PAddr, kind arch.AccessKind) stats.Cycles {
	res := v.Cache.Access(va, pa, kind)
	var c stats.Cycles
	for _, ev := range res.Events[:res.NEvents] {
		r, err := v.MMC.HandleEvent(ev)
		if err != nil {
			panic(fmt.Sprintf("vm: kernel access fault at %v: %v", pa, err))
		}
		c += stats.Cycles(r.StallCPU)
	}
	return c
}

// EnsureMapped demand-maps every page of [base, base+size).
func (v *VM) EnsureMapped(base arch.VAddr, size uint64) (stats.Cycles, error) {
	var c stats.Cycles
	for va := base.PageBase(); va < base+arch.VAddr(size); va += arch.PageSize {
		n, err := v.MapPage(va)
		c += n
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// MissResult reports the outcome of the software TLB miss handler.
type MissResult struct {
	// Entry is the translation to install in the processor TLB.
	Entry tlb.Entry
	// HandlerCycles is time spent in the miss handler proper (trap,
	// probes, insert) — the paper's "TLB miss time".
	HandlerCycles stats.Cycles
	// FaultCycles is page-fault service time (demand paging), reported
	// separately because it is kernel time, not TLB miss time.
	FaultCycles stats.Cycles
	// PromoteCycles is time spent promoting the region to superpages
	// under the online-promotion policy (kernel time).
	PromoteCycles stats.Cycles
}

// HandleTLBMiss runs the software miss handler for va: trap into the
// kernel, probe the hashed page table (each probe a real memory access
// through the cache), demand-map the page if absent, and return the TLB
// entry to install. kind distinguishes read/write so the handler can set
// the software referenced/dirty bits the paging policy needs (§2.5).
func (v *VM) HandleTLBMiss(va arch.VAddr, kind arch.AccessKind) (MissResult, error) {
	v.TLBMisses++
	res := MissResult{HandlerCycles: stats.Cycles(v.Kernel.Costs.TrapEntryExit)}
	res.PromoteCycles = v.notePromotionMiss(va)

	pte, probes := v.HPT.Lookup(va)
	for range probes {
		res.HandlerCycles += stats.Cycles(v.Kernel.Costs.ProbeCompute)
	}
	for _, pa := range probes {
		res.HandlerCycles += v.kernelAccess(pa, arch.Read)
	}

	if pte == nil {
		fc, err := v.MapPage(va)
		res.FaultCycles += fc
		if err != nil {
			return res, err
		}
		// Re-probe: the new entry is found on the retry.
		var probes2 []arch.PAddr
		pte, probes2 = v.HPT.Lookup(va)
		for _, pa := range probes2 {
			res.HandlerCycles += stats.Cycles(v.Kernel.Costs.ProbeCompute)
			res.HandlerCycles += v.kernelAccess(pa, arch.Read)
		}
		if pte == nil {
			return res, fmt.Errorf("vm: page at %v unmapped after fault service", va)
		}
	}

	pte.Referenced = true
	if kind == arch.Write {
		pte.Dirty = true
	}
	res.HandlerCycles += stats.Cycles(v.Kernel.Costs.TLBInsert)
	res.Entry = tlb.Entry{
		Class:      pte.Class,
		Tag:        uint64(pte.VBase),
		Target:     uint64(pte.Target),
		ReadOnly:   pte.ReadOnly,
		Supervisor: pte.Supervisor,
	}
	return res, nil
}

// TranslateData functionally resolves a (possibly shadow) physical
// address to the real DRAM address, for the simulator's data path.
func (v *VM) TranslateData(pa arch.PAddr) (arch.PAddr, error) {
	if v.STable != nil && v.STable.Space().Contains(pa) {
		return v.STable.Translate(pa)
	}
	return pa, nil
}
