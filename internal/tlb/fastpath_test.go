package tlb

import (
	"testing"

	"shadowtlb/internal/arch"
)

// TestSetIndexEquivalence pins the shift/mask set indexing to the
// modulo/divide form it replaced, across power-of-two and
// non-power-of-two set counts (96 entries / 2 ways = 48 sets is the
// paper's own MTLB ablation geometry).
func TestSetIndexEquivalence(t *testing.T) {
	geoms := []struct{ entries, ways int }{
		{64, 2},  // 32 sets: power of two, mask path
		{128, 2}, // 64 sets
		{96, 2},  // 48 sets: modulo fallback
		{96, 4},  // 24 sets: modulo fallback
		{16, 16}, // fully associative: single set
	}
	for _, g := range geoms {
		tl := New(SetAssociative(g.entries, g.ways))
		numSets := uint64(g.entries / g.ways)
		shift := arch.Page4K.Shift()
		for _, addr := range []uint64{
			0, 0x1000, 0x2340, 0xFFFF_F000, 0x8000_0000, 0x1234_5678,
			^uint64(0), 1 << 47, (1 << 47) - arch.PageSize,
		} {
			want := (addr >> shift) % numSets
			if got := tl.setIndex(addr); got != want {
				t.Errorf("%d/%dw: setIndex(%#x) = %d, want %d (page %% %d)",
					g.entries, g.ways, addr, got, want, numSets)
			}
		}
	}
}

// TestFastHitMatchesLookup verifies FastHit replays exactly the
// bookkeeping of a Lookup hit: stats and NRU state evolve identically
// whether hits go through the lookup or the fast path.
func TestFastHitMatchesLookup(t *testing.T) {
	mk := func() *TLB {
		tl := New(FullyAssociative(4))
		for i := uint64(0); i < 4; i++ {
			tl.Insert(Entry{Class: arch.Page4K, Tag: i << arch.PageShift, Target: (i + 16) << arch.PageShift})
		}
		return tl
	}
	a, b := mk(), mk()

	// A deterministic hit sequence that forces NRU aging (all four
	// entries touched, then one again).
	seq := []uint64{0x0, 0x1000, 0x2000, 0x3000, 0x1000, 0x0}
	for _, addr := range seq {
		ea := a.Lookup(addr)
		if ea == nil {
			t.Fatalf("Lookup(%#x) missed", addr)
		}
		eb := b.Probe(addr)
		b.FastHit(eb)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverge: lookup %+v, fasthit %+v", a.Stats, b.Stats)
	}
	// The NRU state must match: insert into both and confirm the same
	// victim is chosen.
	va := a.Insert(Entry{Class: arch.Page4K, Tag: 0x9000, Target: 0x19000})
	vb := b.Insert(Entry{Class: arch.Page4K, Tag: 0x9000, Target: 0x19000})
	if va.Tag != vb.Tag {
		t.Errorf("NRU state diverged: lookup path evicted %#x, fast path %#x", va.Tag, vb.Tag)
	}
}

// TestGenAdvancesOnMutation pins the generation contract the CPU memo
// relies on: every Insert and every purge (including a PurgeAll of an
// empty TLB, the context-switch case) moves the generation.
func TestGenAdvancesOnMutation(t *testing.T) {
	tl := New(FullyAssociative(4))
	g := tl.Gen()
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x1000, Target: 0x5000})
	if tl.Gen() == g {
		t.Error("Insert did not advance the generation")
	}
	g = tl.Gen()
	tl.Purge(0x1000)
	if tl.Gen() == g {
		t.Error("Purge did not advance the generation")
	}
	g = tl.Gen()
	tl.PurgeAll() // empty: nothing purgeable, must still advance
	if tl.Gen() == g {
		t.Error("PurgeAll on an empty TLB did not advance the generation")
	}
	g = tl.Gen()
	tl.Insert(Entry{Class: arch.Page4K, Tag: 0x2000, Target: 0x6000})
	g = tl.Gen()
	tl.PurgeRange(0x0, 0x10000)
	if tl.Gen() == g {
		t.Error("PurgeRange did not advance the generation")
	}
	g = tl.Gen()
	if tl.Lookup(0x7000); tl.Gen() != g {
		t.Error("Lookup (a read) must not advance the generation")
	}
}
