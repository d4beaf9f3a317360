// Fast-path access engine: a small per-CPU memo of recently translated
// pages (the data-side analogue of the MicroITLB, but purely a simulator
// acceleration — it models no hardware). A reference that stays within a
// memoized 4 KB page and hits the data cache charges the exact cycles
// and bumps the exact counters the full path would, without re-running
// the TLB lookup, the cache victim logic, the bus/MMC model,
// or the functional shadow-table DRAM walk.
//
// Correctness rests on three live checks per use (DESIGN.md §10):
//
//   - the CPU TLB generation: every Insert/Purge/PurgeAll/PurgeRange
//     advances it, so remap() shootdowns, context switches and capacity
//     evictions kill the memo without knowing it exists;
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

// memoSlots is the number of direct-mapped memo entries, indexed by the
// low bits of the virtual page number. Eight covers the hot pages of
// every paper workload's inner loop without making flushes costly.
const memoSlots = 8

// memoEntry caches one page's translation chain: virtual page → TLB
// entry → (possibly shadow) physical page → real DRAM page.
type memoEntry struct {
	valid    bool
	vbase    uint64     // 4 KB-aligned virtual base
	paBase   arch.PAddr // physical (possibly shadow) base of the page
	realBase arch.PAddr // real DRAM base after shadow translation
	entry    *tlb.Entry // the installed TLB entry covering vbase
	tlbGen   uint64     // TLB.Gen() when memoized
	shGen    uint64     // ShadowTable.Gen() when memoized

	// Line-grain repeat state: the last line hit within this page, valid
	// while the cache's mutation generation is unchanged.
	lineBase     uint64 // virtual line base, 0 when no line memoized
	lineWritable bool   // line was in modified state (silent-write ok)
	cacheGen     uint64 // Cache.Gen() when the line was verified
}

// FlushMemo discards every memoized translation. The generation checks
// make this unnecessary for correctness — every invalidation source
// already advances a generation the memo verifies on use — but explicit
// flushes at context switches and OS shootdowns keep the engine honest
// even if a future mutation path forgets to bump a generation.
func (c *CPU) FlushMemo() {
	for i := range c.memo {
		c.memo[i] = memoEntry{}
	}
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

// memoize records the translation chain the slow path just resolved.
// The access's own line is memoized at line grain too: the full Access
// left it resident, modified when the access was a write.
func (c *CPU) memoize(va arch.VAddr, e *tlb.Entry, kind arch.AccessKind, pa, real arch.PAddr) {
	if c.cfg.NoFastPath || e == nil {
		return
	}
	vbase := uint64(va) &^ arch.PageMask
	pageMask := arch.PAddr(arch.PageMask)
	c.memo[(vbase>>arch.PageShift)&(memoSlots-1)] = memoEntry{
		valid:        true,
		vbase:        vbase,
		paBase:       pa &^ pageMask,
		realBase:     real &^ pageMask,
		entry:        e,
		tlbGen:       c.TLB.Gen(),
		shGen:        c.shadowGen(),
		lineBase:     c.Cache.LineBase(va),
		lineWritable: kind == arch.Write,
		cacheGen:     c.Cache.Gen(),
	}
}

// MemoDiag audits the fast-path memo for the invariant harness. Only
// entries still at the current TLB/shadow generations are checked —
// stale entries are dead by construction (fastAccess refuses them) —
// and each live entry must re-derive the same translation chain from
// the authoritative structures: the recorded TLB entry still covers the
// page with the same target, and the shadow translation of paBase still
// lands on realBase. After FlushMemo every slot is invalid, so the
// audit trivially passes. Returns a description per inconsistent slot.
func (c *CPU) MemoDiag() []string {
	var bad []string
	for i := range c.memo {
		m := &c.memo[i]
		if !m.valid || m.tlbGen != c.TLB.Gen() || m.shGen != c.shadowGen() {
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
		}
	}
	return bad
}

// fastAccess attempts to complete one data reference from the memo. It
// returns the real physical address and true only when the access is a
// pure TLB hit + cache hit with no state change; in that case it has
// charged exactly what the full path would have (one TLB hit with NRU
// touch, one cache hit, no cycles beyond the instruction already
// accounted by the caller). On any doubt it returns false having
// changed nothing, and the caller runs the full path.
func (c *CPU) fastAccess(va arch.VAddr, kind arch.AccessKind) (arch.PAddr, bool) {
	vbase := uint64(va) &^ arch.PageMask
	m := &c.memo[(vbase>>arch.PageShift)&(memoSlots-1)]
	if !m.valid || m.vbase != vbase ||
		m.tlbGen != c.TLB.Gen() || m.shGen != c.shadowGen() {
		return 0, false
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
		return m.realBase | off, true
	}
	hit, writable := c.Cache.FastHit(va, m.paBase|off, kind)
	if !hit {
		return 0, false
	}
	m.lineBase, m.lineWritable, m.cacheGen = lineBase, writable, c.Cache.Gen()
	c.TLB.FastHit(m.entry)
	return m.realBase | off, true
}
