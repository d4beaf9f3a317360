// Fast-path access engine: a per-CPU memo of recently translated pages
// (the data-side analogue of the MicroITLB, but purely a simulator
// acceleration — it models no hardware). A reference that stays within a
// memoized 4 KB page and hits the data cache charges the exact cycles
// and bumps the exact counters the full path would, without re-running
// the TLB lookup, the cache victim logic, the bus/MMC model,
// or the functional shadow-table DRAM walk; its data moves straight
// through the page's DRAM storage, which the slot caches.
//
// The memo is one direct-mapped table of memoSlots pages shared by the
// per-reference path below and the batched replay loop (replay.go).
// Correctness rests on three live checks per use (DESIGN.md §10):
//
//   - the memoized TLB entry's stamp: every write of a TLB slot gives
//     it a fresh stamp and every purge zeroes it, so remap()
//     shootdowns, context switches and capacity evictions kill exactly
//     the memo slots whose entry they touched, without knowing the memo
//     exists, while inserts into other TLB slots leave the memo alone;
//   - the shadow-table generation: every Set that changes which real
//     frame backs a shadow page advances it, covering swap-out/in and
//     recoloring;
//   - the cache itself: Cache.FastHit consults the live tags and refuses
//     (with zero side effects) any access that would miss or change line
//     state, so those fall through to the full path. On top of it sits a
//     line-grain memo guarded by the cache's mutation generation: while
//     no line anywhere has been filled, evicted, upgraded or flushed, a
//     reference repeating the remembered line skips even the tag scan —
//     the line is provably still resident in the same state (writes are
//     skipped only for modified lines, which a write cannot change).
package cpu

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/tlb"
)

// memoSlots is the number of direct-mapped memo slots, indexed by the
// low bits of the virtual page number: 2 MB of base pages, enough for
// the hot page working sets of the paper workloads, at about 60 KB per
// CPU.
const memoSlots = 512

// lineWords is the size of a slot's line bitmaps: one bit per cache
// line of a base page.
const lineWords = arch.PageSize / arch.LineSize / 64

// memoSlot caches one page's translation chain: virtual page → TLB
// entry → (possibly shadow) physical page → real DRAM page. A slot is
// empty while entry is nil.
type memoSlot struct {
	vbase    uint64     // 4 KB-aligned virtual base
	entry    *tlb.Entry // the installed TLB entry covering vbase
	stamp    uint64     // entry.Stamp() when memoized
	shGen    uint64     // shadow generation when memoized
	paBase   arch.PAddr // physical (possibly shadow) base of the page
	realBase arch.PAddr // real DRAM base after shadow translation

	// Line-grain repeat state of the per-reference path: the last line
	// hit within this page, valid while the cache's mutation generation
	// is unchanged.
	lineBase     uint64 // virtual line base, 0 when no line memoized
	cacheGen     uint64 // Cache.Gen() when the line was verified
	lineWritable bool   // line was in modified state (silent-write ok)

	// page is the DRAM storage at realBase, filled by the first Load or
	// Store through the slot (replay moves no data and never fills it,
	// so the memo materializes no frame a run would not).
	page *[arch.PageSize]byte

	// The replay loop's line bitmaps: lines marks page lines verified
	// resident, written those verified modified (stores need no
	// upgrade). A set bit makes Cache.FastHit on that line a foregone
	// conclusion — one counted hit, no state change — so the loop
	// defers the count instead. Freshness: drainEvictions clears the
	// exact victim bits before every use, so bitmaps at the current
	// epoch are always exact; an eGen behind CPU.rEpoch means an
	// eviction-log overflow lost track and the bitmaps must restart
	// empty.
	eGen    uint64
	lines   [lineWords]uint64
	written [lineWords]uint64
}

// holds reports whether the slot still holds vbase's translation at
// shadow generation shGen. Checking the one memoized TLB entry, not the
// whole TLB, is sound because no two valid TLB entries overlap (the VM
// purges a range before installing a larger class over it, and the
// tlb.overlap invariant audits it): while the memoized entry keeps its
// stamp it is still installed with the same mapping, so no other entry
// can cover the page, and TLB.Lookup would return this entry.
func (m *memoSlot) holds(vbase, shGen uint64) bool {
	return m.vbase == vbase && m.entry != nil && m.entry.Stamp() == m.stamp && m.shGen == shGen
}

// fill points the slot at a new translation with no line state: the
// line memo and the page are cleared, and the bitmaps restart empty at
// the given eviction epoch.
func (m *memoSlot) fill(vbase uint64, e *tlb.Entry, paBase, realBase arch.PAddr, shGen, epoch uint64) {
	*m = memoSlot{
		vbase: vbase, entry: e, stamp: e.Stamp(), shGen: shGen,
		paBase: paBase, realBase: realBase, eGen: epoch,
	}
}

// verify marks the line at vline (a virtual line base inside the page)
// resident in the bitmaps, and modified when writable.
func (m *memoSlot) verify(vline uint64, writable bool) {
	li := (vline & arch.PageMask) >> arch.LineShift
	m.lines[li>>6] |= 1 << (li & 63)
	if writable {
		m.written[li>>6] |= 1 << (li & 63)
	}
}

// slot returns the memo slot vbase maps to.
func (c *CPU) slot(vbase uint64) *memoSlot {
	return &c.memo[(vbase>>arch.PageShift)&(memoSlots-1)]
}

// FlushMemo discards every memoized translation. The stamp and
// generation checks make this unnecessary for correctness — every
// invalidation source already changes a stamp or generation the memo
// verifies on use — but explicit flushes at context switches and OS
// shootdowns keep the engine honest even if a future mutation path
// forgets to. Outside fault injection flushes are rare (at most 43 in a
// paper-scale run of any paper workload), so a full clear costs nothing
// measurable.
func (c *CPU) FlushMemo() {
	clear(c.memo[:])
}

// shadowGen returns the current translation generation of the MMC's
// backend, or zero on conventional systems with no shadow memory. The
// memo validates against the Translator interface's generation, so any
// backend's invalidation semantics (all current ones delegate to the
// shadow table) are honoured without the CPU knowing the scheme.
func (c *CPU) shadowGen() uint64 {
	if tr := c.VM.MMC.Translator(); tr != nil {
		return tr.Gen()
	}
	return 0
}

// memoize records the translation chain the slow path just resolved and
// returns the slot holding it (nil with the fast path off). A slot that
// already holds the same translation keeps its page and bitmaps. The
// access's own line is memoized at line grain and in the bitmaps too:
// the full Access left it resident, modified when the access was a
// write.
func (c *CPU) memoize(va arch.VAddr, e *tlb.Entry, kind arch.AccessKind, pa, real arch.PAddr) *memoSlot {
	if c.cfg.NoFastPath || e == nil {
		return nil
	}
	vbase := uint64(va) &^ arch.PageMask
	m := c.slot(vbase)
	if sh := c.shadowGen(); m.entry != e || !m.holds(vbase, sh) {
		pageMask := arch.PAddr(arch.PageMask)
		m.fill(vbase, e, pa&^pageMask, real&^pageMask, sh, c.rEpoch)
	}
	m.lineBase, m.lineWritable, m.cacheGen = c.Cache.LineBase(va), kind == arch.Write, c.Cache.Gen()
	m.verify(m.lineBase, m.lineWritable)
	return m
}

// data returns the DRAM bytes from real to the end of its page. Through
// a memo slot it is the slot's cached page, filled on first use;
// without one (the fast path off) it is a frame lookup.
func (c *CPU) data(real arch.PAddr, m *memoSlot) []byte {
	if m == nil {
		return c.VM.Dram.Page(real)[real&arch.PageMask:]
	}
	if m.page == nil {
		m.page = c.VM.Dram.Page(m.realBase)
	}
	return m.page[real&arch.PageMask:]
}

// MemoDiag audits the memo for the invariant harness, whichever path
// filled each slot. Only slots whose TLB entry still carries the
// recorded stamp at the current shadow generation are checked — the
// rest are dead by construction (fastAccess and the replay loop refuse
// them) — and each live slot must re-derive the same translation chain
// from the authoritative structures: the recorded TLB entry still
// covers the page with the same target, the shadow translation of
// paBase still lands on realBase, and a cached page is the DRAM storage
// at realBase. After FlushMemo every slot is empty, so the audit
// trivially passes. Returns a description per inconsistent slot.
func (c *CPU) MemoDiag() []string {
	var bad []string
	sh := c.shadowGen()
	for i := range c.memo {
		m := &c.memo[i]
		if !m.holds(m.vbase, sh) {
			continue
		}
		e := c.TLB.Probe(m.vbase)
		if e == nil || e != m.entry {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: recorded TLB entry no longer installed", i, m.vbase))
			continue
		}
		if got := arch.PAddr(e.Translate(m.vbase)); got != m.paBase {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: paBase %v, TLB now translates to %v", i, m.vbase, m.paBase, got))
			continue
		}
		real, err := c.VM.TranslateData(m.paBase)
		if err != nil || real != m.realBase {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: realBase %v, shadow table now gives %v (err %v)", i, m.vbase, m.realBase, real, err))
			continue
		}
		if m.page != nil && m.page != c.VM.Dram.Page(m.realBase) {
			bad = append(bad, fmt.Sprintf("memo[%d] va %#x: cached page is not the DRAM storage at %v", i, m.vbase, m.realBase))
		}
	}
	return bad
}

// fastAccess attempts to complete one data reference from the memo. It
// returns the real physical address and the slot only when the access
// is a pure TLB hit + cache hit with no state change; in that case it
// has charged exactly what the full path would have (one TLB hit with
// NRU touch, one cache hit, no cycles beyond the instruction already
// accounted by the caller). On any doubt it returns a nil slot having
// changed nothing, and the caller runs the full path.
func (c *CPU) fastAccess(va arch.VAddr, kind arch.AccessKind) (arch.PAddr, *memoSlot) {
	vbase := uint64(va) &^ arch.PageMask
	m := c.slot(vbase)
	if !m.holds(vbase, c.shadowGen()) {
		return 0, nil
	}
	off := arch.PAddr(va.PageOff())
	lineBase := c.Cache.LineBase(va)
	if m.lineBase == lineBase && m.cacheGen == c.Cache.Gen() &&
		(kind == arch.Read || m.lineWritable) {
		// Repeat of the remembered line with no cache mutation since it
		// was verified: still resident, state unchangeable by this
		// access. Charge the hit without rescanning the tags.
		c.Cache.FastRepeatHit()
		c.TLB.FastHit(m.entry)
		return m.realBase | off, m
	}
	hit, writable := c.Cache.FastHit(va, m.paBase|off, kind)
	if !hit {
		return 0, nil
	}
	m.lineBase, m.lineWritable, m.cacheGen = lineBase, writable, c.Cache.Gen()
	c.TLB.FastHit(m.entry)
	return m.realBase | off, m
}
