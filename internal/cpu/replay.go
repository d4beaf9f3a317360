// Batched replay path: StreamCols consumes a column-form reference run
// (workload.RefCols, the compiled replay engine's storage layout)
// without materializing workload.Ref values and without the functional
// DRAM traffic of Load/Store — replayed loads discard their values and
// replayed stores write a placeholder, and no counter anywhere in the
// machine depends on DRAM contents, so eliding the data movement is
// exact. On top of that the loop batches the bookkeeping of runs that
// provably take the fast path:
//
//   - refs that repeat the memoized page and line accumulate their
//     instruction cycles, TLB/cache hit counts and load/store counts in
//     locals, flushed to the shared counters before anything that could
//     observe them;
//   - page changes consult the page memo the per-reference fast path
//     also reads and writes (fastpath.go) and then the TLB itself, so
//     only a real TLB or cache miss pays the full access path;
//   - the flush points are exactly the places per-reference execution
//     would interleave other work: an instruction-fetch boundary (every
//     IFetchPeriod instructions), a reference that needs the full access
//     path, or the end of the run.
//
// Equivalence with per-reference execution rests on the same facts the
// fast path proves (fastpath.go) plus four more, each load-bearing:
//
//   - Kernel.Advance is associative: ticks fire on cumulative cycle
//     counts, so Charge(a+b) ≡ Charge(a);Charge(b) when no OnTick hook
//     runs between them;
//   - TLB NRU touches are idempotent between TLB mutations: touch
//     returns immediately once the referenced bit is set, and any
//     mutation that could clear it (an insert, purge, or another
//     entry's touch aging the set) only happens inside an escape, which
//     ends the deferred run;
//   - TLB.Lookup on a hit is counter-equivalent to TLB.FastHit (one
//     Stats.Hit plus the touch; lastHit is not a counter), so whether
//     the memo holds a page never changes the counter stream;
//   - Cache.FastHit/FastRepeatHit mutate nothing but hit counters, and
//     Cache.Access on the hits FastHit accepts does exactly the same
//     (replacement is round-robin, not recency-based, and write
//     upgrades are refused into the full path).
//
// Configurations that break the batching assumptions — a preemption
// quantum, a kernel tick hook, an attached sampler or timeline, a
// per-access invariant probe, or NoFastPath — fall back to exact
// per-reference delivery.
package cpu

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/check"
	"shadowtlb/internal/stats"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/workload"
)

var _ workload.ColStreamer = (*CPU)(nil)

// drainEvictions applies every cache eviction logged since the last
// drain to the memo's line bitmaps: each victim line's bit is cleared in
// the slot holding its page, so slot bitmaps stay exact without any
// per-adoption synchronization. When the log overflowed (more than
// cache.EvictLogSize evictions since the last drain, or a flush), the
// epoch advances and every slot's bitmaps die wholesale. Called
// wherever evictions can have happened: after escapes and instruction
// fetches, and at batch entry.
func (c *CPU) drainEvictions() {
	g := c.Cache.EvictGen()
	if g == c.rDrained {
		return
	}
	var buf [cache.EvictLogSize]uint64
	if ne, ok := c.Cache.EvictionsSince(c.rDrained, buf[:]); ok {
		for _, ev := range buf[:ne] {
			if m := c.slot(ev); m.vbase == ev&^uint64(arch.PageMask) {
				li := (ev & arch.PageMask) >> arch.LineShift
				m.lines[li>>6] &^= 1 << (li & 63)
				m.written[li>>6] &^= 1 << (li & 63)
			}
		}
	} else {
		c.rEpoch++
	}
	c.rDrained = g
}

// StreamCols issues a column-form reference run with semantics identical
// to delivering the materialized refs through Stream.
func (c *CPU) StreamCols(cols workload.RefCols) {
	if c.replayBatchable() {
		c.streamColsFast(cols)
		return
	}
	// Exact fallback: per-reference issue, full functional accesses.
	for i := 0; i < cols.Len(); i++ {
		r := cols.Ref(i)
		if r.Store {
			c.Store(r.VA, int(r.Size), r.Val)
		} else {
			c.Load(r.VA, int(r.Size))
		}
		if r.Step > 0 {
			c.Step(int(r.Step))
		}
	}
}

// replayBatchable reports whether batched counter accumulation is
// observationally equivalent to per-reference execution on this CPU:
// nothing may run between references that could see intermediate counter
// state or perturb the structures the batch hoists.
func (c *CPU) replayBatchable() bool {
	return !c.cfg.NoFastPath &&
		c.Quantum == 0 &&
		c.smp == nil && c.tl == nil &&
		c.K.OnTick == nil &&
		!(check.Enabled && c.OnAccessCheck != nil)
}

// replayOne runs one reference through the regular access path, minus
// the functional data movement.
func (c *CPU) replayOne(va arch.VAddr, size int, isStore bool) {
	kind := arch.Read
	if isStore {
		kind = arch.Write
		c.Stores++
	} else {
		c.Loads++
	}
	c.access(va, size, kind)
}

// streamColsFast is the batched loop. See the package comment for the
// equivalence argument.
func (c *CPU) streamColsFast(cols workload.RefCols) {
	period := c.cfg.IFetchPeriod
	lineMask := c.Cache.LineMask()
	si := c.sinceIFetch

	// Counters accrued since the last flush.
	var pend uint64 // instructions (one user cycle each)
	var tlbHits, cacheHits uint64
	var loads, stores uint64

	// Shadow generation and eviction epoch, reloaded after anything that
	// could advance them.
	c.drainEvictions()
	shGen, epoch := c.shadowGen(), c.rEpoch

	// Hoisted state of the page the run is currently inside. noPage
	// forces re-adoption (with live stamp and generation checks) after
	// anything that could invalidate it.
	const noPage = ^uint64(0)
	curVBase := noPage
	var rs *memoSlot // memo slot of the current page
	var entry *tlb.Entry
	var paBase arch.PAddr
	var lineB uint64
	var lineW bool
	// needTouch: the page's TLB entry must be re-touched (a full
	// FastHit, not a deferred count) because NRU state may have changed
	// since the last touch — at every adoption and after any ifetch or
	// full-path escape, any of which can age reference bits.
	needTouch := true

	flush := func() {
		if pend > 0 {
			c.Instructions += pend
			c.Charge(stats.Cycles(pend), User)
			pend = 0
		}
		c.TLB.Stats.Hits += tlbHits
		c.Cache.Stats.Hits += cacheHits
		c.Loads += loads
		c.Stores += stores
		tlbHits, cacheHits, loads, stores = 0, 0, 0, 0
	}
	// resync re-hoists state after an escape ran arbitrary machine code.
	resync := func() {
		si = c.sinceIFetch
		c.drainEvictions()
		shGen, epoch = c.shadowGen(), c.rEpoch
		curVBase = noPage
		needTouch = true
	}
	// escape runs one reference through the full per-reference path
	// (which interleaves its own charging, ifetching and memoization)
	// after bringing every shared counter up to date.
	escape := func(va arch.VAddr, size int, isStore bool, step uint32) {
		flush()
		c.sinceIFetch = si
		c.replayOne(va, size, isStore)
		if step > 0 {
			c.Step(int(step))
		}
		resync()
	}
	// slowPath runs the full cache path for a reference whose TLB
	// lookup is already counted, after committing its instruction
	// (charged before any miss handler, as instr(1) orders it) and every
	// deferred counter. A nil e is a TLB miss: the handler runs first,
	// exactly where per-reference execution would run it.
	slowPath := func(va arch.VAddr, kind arch.AccessKind, pa arch.PAddr, e *tlb.Entry, step uint32) {
		if kind == arch.Write {
			stores++
		} else {
			loads++
		}
		pend++
		si++
		flush()
		c.sinceIFetch = si
		if e == nil {
			pa, e = c.translateMissed(va, kind)
		}
		c.accessSlow(va, kind, pa, e, true)
		if step > 0 {
			c.Step(int(step))
		}
		resync()
	}

	n := len(cols.VPN)
	runs := cols.Runs
	ri := 0
	for i := 0; i < n; i++ {
		// Retire whole compiled runs as counter arithmetic when the page
		// memo proves every access in them hits. For each page the run
		// spans: the slot holds the page (its TLB entry's stamp and the
		// shadow generation unchanged), the page's TLB entry already has
		// its NRU bit set (so every touch the run would do provably
		// early-returns before any state change), and the run's line
		// bitmaps are a subset of the slot's verified-resident (and, for
		// stores, verified-modified) bitmaps at the current epoch. With
		// the run's cycles fitting before the next instruction fetch,
		// each retired reference is then exactly a deferred TLB hit plus
		// a deferred cache hit — what the per-reference path below would
		// have produced one iteration at a time — and no TLB, cache, or
		// NRU state changes.
		if ri < len(runs) && int(runs[ri].Start)-cols.Bit0 == i {
			r := &runs[ri]
			ri++
			if r.Cycles != ^uint32(0) && si+int(r.Cycles) < period {
				ok := true
				for k := 0; k < int(r.NPages) && ok; k++ {
					rp := &r.Pages[k]
					vb := uint64(rp.VPN) << arch.PageShift
					s := c.slot(vb)
					ok = s.holds(vb, shGen) && s.eGen == epoch && s.entry.Referenced()
					for w := 0; w < lineWords && ok; w++ {
						ok = rp.Lines[w]&^s.lines[w] == 0 && rp.Written[w]&^s.written[w] == 0
					}
				}
				if ok {
					pend += uint64(r.Cycles)
					si += int(r.Cycles)
					cnt := uint64(r.Count)
					cacheHits += cnt
					tlbHits += cnt
					loads += uint64(r.Loads)
					stores += uint64(r.Stores)
					i += int(r.Count) - 1
					continue
				}
			}
		}

		va := arch.VAddr(uint64(cols.VPN[i])<<arch.PageShift | uint64(cols.Off[i]))
		bit := cols.Bit0 + i
		isStore := cols.Store[bit>>6]&(1<<(bit&63)) != 0
		step := cols.Step[i]

		// An instruction-fetch boundary lands inside this reference:
		// take the full path, which fetches at the exact instruction.
		if si+1 >= period {
			escape(va, int(cols.Size[i]), isStore, step)
			continue
		}

		kind := arch.Read
		if isStore {
			kind = arch.Write
		}

		vbase := uint64(va) &^ arch.PageMask
		if vbase != curVBase {
			// Adopt the new page: the memo, then the TLB itself. Both
			// are guarded by live checks; whichever holds the page, the
			// reference's counters come out identical.
			rs = c.slot(vbase)
			if rs.holds(vbase, shGen) {
				entry, paBase = rs.entry, rs.paBase
				if rs.eGen != epoch {
					// The eviction log overflowed since the bitmaps were
					// started: they must restart empty.
					rs.lines = [lineWords]uint64{}
					rs.written = [lineWords]uint64{}
					rs.eGen = epoch
				}
				lineB, lineW = 0, false
				curVBase = vbase
				needTouch = true
			} else {
				// Medium path: the TLB may still hold the page. Lookup
				// is counter-equivalent to the touch the memoized paths
				// do.
				e := c.TLB.Lookup(uint64(va))
				if e == nil {
					slowPath(va, kind, 0, nil, step)
					continue
				}
				pa := arch.PAddr(e.Translate(uint64(va)))
				hit, writable := c.Cache.FastHit(va, pa, kind)
				if !hit {
					// Real cache miss (or a write needing an upgrade):
					// full cache path, translation already counted.
					slowPath(va, kind, pa, e, step)
					continue
				}
				// The slot needs the real page for the per-reference
				// path. The full path resolves it at this point of a
				// cache hit too, and fails the same way.
				pbase := pa &^ arch.PAddr(arch.PageMask)
				real, err := c.VM.TranslateData(pbase)
				if err != nil {
					panic(fmt.Sprintf("cpu: functional translate of %v: %v", pa, err))
				}
				// TLB hit + cache hit: adopt. Lookup already touched
				// and counted the TLB hit for this reference, FastHit
				// counted the cache hit; only the instruction and the
				// load/store count remain.
				entry, paBase = e, pbase
				curVBase = vbase
				lineB, lineW = uint64(va)&^lineMask, writable
				rs.fill(vbase, e, pbase, real, shGen, epoch)
				rs.verify(lineB, lineW)
				needTouch = false
				pend++
				si++
				if isStore {
					stores++
				} else {
					loads++
				}
				goto folded
			}
		}

		{
			lb := uint64(va) &^ lineMask
			if lb == lineB && (!isStore || lineW) {
				// Repeat of a verified line in a state this access
				// cannot change: pure counter work.
				cacheHits++
			} else if li := (uint64(va) & arch.PageMask) >> arch.LineShift; rs.lines[li>>6]>>(li&63)&1 != 0 &&
				(!isStore || rs.written[li>>6]>>(li&63)&1 != 0) {
				// Line already verified resident, in a state this
				// access cannot change: FastHit would count one hit and
				// return — defer the count instead.
				cacheHits++
				lineB, lineW = lb, rs.written[li>>6]>>(li&63)&1 != 0
			} else {
				off := arch.PAddr(uint64(va) & arch.PageMask)
				hit, writable := c.Cache.FastHit(va, paBase|off, kind)
				if !hit {
					// Real cache miss (or a write needing an upgrade).
					// The page's translation is already verified, so
					// count the TLB hit exactly as the per-ref path
					// would and run only the cache's full path.
					if needTouch {
						c.TLB.FastHit(entry)
					} else {
						tlbHits++
					}
					slowPath(va, kind, paBase|off, entry, step)
					continue
				}
				// FastHit counted the cache hit itself.
				lineB, lineW = lb, writable
				rs.verify(lb, writable)
			}
			pend++
			si++
			if needTouch {
				c.TLB.FastHit(entry)
				needTouch = false
			} else {
				tlbHits++
			}
			if isStore {
				stores++
			} else {
				loads++
			}
		}

	folded:
		if step > 0 {
			pend += uint64(step)
			si += int(step)
			if si >= period {
				// instr(n) charges the whole batch, then fetches.
				flush()
				for si >= period {
					si -= period
					c.ifetch()
				}
				c.drainEvictions()
				shGen, epoch = c.shadowGen(), c.rEpoch
				curVBase = noPage
				needTouch = true
			}
		}
	}
	flush()
	c.sinceIFetch = si
}
