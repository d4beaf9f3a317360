package cpu

import (
	"fmt"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/tlb"
)

// memoized returns a CPU whose memo holds the page at the returned
// address with its line resident, so fastAccess hits there. With
// withMTLB the page is shadow-backed.
func memoized(t *testing.T, withMTLB bool) (*CPU, arch.VAddr) {
	t.Helper()
	c := testCPU(t, withMTLB, 64)
	base := c.AllocRegion("data", 64*arch.KB)
	if withMTLB && !c.Remap(base, 64*arch.KB) {
		t.Fatal("remap refused on a machine with an MTLB")
	}
	c.Store(base, 8, 1)
	if _, m := c.fastAccess(base, arch.Read); m == nil {
		t.Fatal("setup: memo misses on a page just accessed")
	}
	return c, base
}

// TestMemoChecksItsEntry pins the memo's invalidation rule: a memoized
// page survives TLB writes to other slots — which advance TLB.Gen — and
// is refused after any write or purge of its own TLB slot, or a change
// of its shadow page's backing frame.
func TestMemoChecksItsEntry(t *testing.T) {
	// other returns the i-th 4 KB mapping no access of the test covers.
	other := func(i int) tlb.Entry {
		tag := uint64(0x7000_0000) + uint64(i)*arch.PageSize
		return tlb.Entry{Class: arch.Page4K, Tag: tag, Target: tag}
	}

	t.Run("unrelated install", func(t *testing.T) {
		c, va := memoized(t, false)
		g := c.TLB.Gen()
		c.TLB.Install(other(0))
		if c.TLB.Gen() == g {
			t.Fatal("Install did not advance the TLB generation")
		}
		if _, m := c.fastAccess(va, arch.Read); m == nil {
			t.Error("memo refused after an install into another slot")
		}
	})

	refused := map[string]func(c *CPU, va arch.VAddr){
		"evicted": func(c *CPU, va arch.VAddr) {
			for i := 0; c.TLB.Probe(uint64(va)) != nil; i++ {
				if i > 4*c.TLB.Entries() {
					t.Fatal("entry never evicted")
				}
				c.TLB.Install(other(i))
			}
		},
		"replaced in place": func(c *CPU, va arch.VAddr) {
			e := c.TLB.Probe(uint64(va))
			c.TLB.Install(tlb.Entry{Class: e.Class, Tag: e.Tag, Target: e.Target})
		},
		"purged":   func(c *CPU, va arch.VAddr) { c.TLB.Purge(uint64(va)) },
		"PurgeAll": func(c *CPU, va arch.VAddr) { c.TLB.PurgeAll() },
	}
	for name, mutate := range refused {
		t.Run(name, func(t *testing.T) {
			c, va := memoized(t, false)
			mutate(c, va)
			if _, m := c.fastAccess(va, arch.Read); m != nil {
				t.Error("memo still used")
			}
		})
	}

	t.Run("shadow page re-Set", func(t *testing.T) {
		c, va := memoized(t, true)
		spa := arch.PAddr(c.TLB.Probe(uint64(va)).Translate(uint64(va)))
		if !c.VM.STable.Space().Contains(spa) {
			t.Fatalf("setup: %v is not a shadow address", spa)
		}
		ent := c.VM.STable.Get(spa)
		ent.PFN++
		c.VM.STable.Set(spa, ent)
		if _, m := c.fastAccess(va, arch.Read); m != nil {
			t.Error("memo still used after the shadow page's frame changed")
		}
	})
}

// BenchmarkAccessScatter loads and stores round-robin over n pages of a
// shadow-backed region, one word per page, so the TLB (1 MB
// superpages) and the cache hold the whole working set and the cost is
// the memo's: 8 pages fit any memo, 512 fill this one.
func BenchmarkAccessScatter(b *testing.B) {
	for _, pages := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			c := testCPU(b, true, 64)
			base := c.AllocRegion("data", 2*arch.MB)
			c.Remap(base, 2*arch.MB)
			addrs := make([]arch.VAddr, pages)
			for p := range addrs {
				// Offsets step by 1 KB every 128 pages, so no two of the
				// words share a set of the 512 KB direct-mapped cache.
				addrs[p] = base + arch.VAddr(p*arch.PageSize+p/128*1024)
				c.Store(addrs[p], 8, uint64(p))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := addrs[i%pages]
				if i&1 == 0 {
					sinkU64 += c.Load(va, 8)
				} else {
					c.Store(va, 4, uint64(i))
				}
			}
		})
	}
}

// sinkU64 keeps benchmark results live.
var sinkU64 uint64
