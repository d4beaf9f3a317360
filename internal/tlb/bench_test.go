package tlb

import (
	"math/rand"
	"testing"

	"shadowtlb/internal/arch"
)

// benchGeoms are the paper's TLB geometries: the fully associative CPU
// TLB at 64, 96 and 128 entries, and the 128-entry 2-way MTLB.
var benchGeoms = []struct {
	name string
	cfg  Config
}{
	{"fa64", FullyAssociative(64)},
	{"fa96", FullyAssociative(96)},
	{"fa128", FullyAssociative(128)},
	{"sa128x2w", SetAssociative(128, 2)},
}

// benchAddrs is the length of every precomputed address stream; a power
// of two so the loop indexes it with a mask.
const benchAddrs = 1 << 12

// pageStream returns benchAddrs addresses drawn uniformly from the
// first pages 4 KB pages, each at a random offset within its page.
func pageStream(pages int, rng *rand.Rand) []uint64 {
	addrs := make([]uint64, benchAddrs)
	for i := range addrs {
		page := uint64(rng.Intn(pages))
		addrs[i] = page<<arch.PageShift | uint64(rng.Intn(arch.PageSize))
	}
	return addrs
}

// runStream looks every address up, inserting an identity-offset 4 KB
// mapping on a miss, so a working set larger than the TLB exercises the
// victim choice on every miss.
func runStream(b *testing.B, tl *TLB, addrs []uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(benchAddrs-1)]
		if tl.Lookup(a) == nil {
			tag := a &^ arch.PageMask
			tl.Insert(Entry{Class: arch.Page4K, Tag: tag, Target: tag + 1<<40})
		}
	}
}

// BenchmarkLookupHit measures lookups over a working set exactly the
// size of the TLB: after warm-up every lookup hits, and consecutive
// lookups mostly name different pages, so the last-hit shortcut rarely
// answers.
func BenchmarkLookupHit(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			tl := New(g.cfg)
			addrs := pageStream(g.cfg.Entries, rand.New(rand.NewSource(1)))
			for p := 0; p < g.cfg.Entries; p++ {
				tag := uint64(p) << arch.PageShift
				tl.Insert(Entry{Class: arch.Page4K, Tag: tag, Target: tag + 1<<40})
			}
			runStream(b, tl, addrs)
		})
	}
}

// BenchmarkLookupMissInsert measures the miss path: the working set is
// four times the TLB, so about three lookups in four miss and insert
// over an NRU victim.
func BenchmarkLookupMissInsert(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			tl := New(g.cfg)
			runStream(b, tl, pageStream(4*g.cfg.Entries, rand.New(rand.NewSource(2))))
		})
	}
}

// BenchmarkLookupMixedClasses measures a superpage-rich fully
// associative TLB: 4 KB mappings beside resident 16 KB, 64 KB, 256 KB
// and 1 MB superpages, each class in its own address region so no two
// mappings overlap. The working set is a quarter larger than the TLB,
// so lookups mix hits in every class with misses and inserts. The
// set-associative geometry holds one page class only and is skipped.
func BenchmarkLookupMixedClasses(b *testing.B) {
	classes := []arch.PageSizeClass{arch.Page4K, arch.Page16K, arch.Page64K, arch.Page256K, arch.Page1M}
	for _, g := range benchGeoms {
		if g.cfg.Uniform {
			continue
		}
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			var maps []Entry
			for k := 0; k < g.cfg.Entries+g.cfg.Entries/4; k++ {
				c := classes[k%len(classes)]
				tag := uint64(c+1)<<32 + uint64(k/len(classes))*c.Bytes()
				maps = append(maps, Entry{Class: c, Tag: tag, Target: tag + 1<<40})
			}
			refs := make([]int, benchAddrs)
			addrs := make([]uint64, benchAddrs)
			for i := range addrs {
				refs[i] = rng.Intn(len(maps))
				m := maps[refs[i]]
				addrs[i] = m.Tag + uint64(rng.Int63n(int64(m.Class.Bytes())))
			}
			tl := New(g.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (benchAddrs - 1)
				if tl.Lookup(addrs[j]) == nil {
					tl.Insert(maps[refs[j]])
				}
			}
		})
	}
}
