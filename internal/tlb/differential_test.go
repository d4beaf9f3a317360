package tlb

import (
	"math/rand"
	"testing"

	"shadowtlb/internal/arch"
)

// diffGeoms are the geometries the differential tests drive: the paper's
// fully associative CPU TLB sizes, the 128-entry 2-way MTLB, and a tiny
// fully associative TLB whose sets fill, age and wire up quickly.
var diffGeoms = []Config{
	FullyAssociative(64),
	FullyAssociative(96),
	FullyAssociative(128),
	SetAssociative(128, 2),
	FullyAssociative(8),
}

// opBytes is the encoded size of one operation: kind, two address
// bytes, and a byte selecting the class, the address region and the
// wired flag.
const opBytes = 4

// diffClasses weights the classes a fully associative TLB is fed
// towards base pages, as a superpage-promoting VM produces them.
var diffClasses = []arch.PageSizeClass{
	arch.Page4K, arch.Page4K, arch.Page4K, arch.Page16K,
	arch.Page64K, arch.Page256K, arch.Page1M, arch.Page16M,
}

// tlbDiff drives the TLB and the reference model with the same
// operations and fails on the first observable difference.
type tlbDiff struct {
	tb   testing.TB
	got  *TLB
	want *refTLB
	op   int    // index of the operation being run, for messages
	last uint64 // previous address, re-used to exercise the last-hit path
}

func newTLBDiff(tb testing.TB, cfg Config) *tlbDiff {
	return &tlbDiff{tb: tb, got: New(cfg), want: newRef(cfg)}
}

// run decodes data into operations and runs them all, comparing after
// each. Trailing bytes that do not make a whole operation are ignored.
func (d *tlbDiff) run(data []byte) {
	for d.op = 0; (d.op+1)*opBytes <= len(data); d.op++ {
		b := data[d.op*opBytes : (d.op+1)*opBytes]
		d.step(b[0], uint64(b[1])|uint64(b[2])<<8, b[3])
		d.compare()
	}
}

// step runs one operation. The address is a 4 KB page number below 4096
// placed in one of four regions that differ only in high bits; flags
// picks the region, the page class and (rarely) the wired bit.
func (d *tlbDiff) step(kind byte, page uint64, flags byte) {
	cfg := d.got.cfg
	addr := uint64(flags>>5&3)<<36 | (page&0xfff)<<arch.PageShift | uint64(kind)<<4
	if kind&0x80 != 0 {
		addr = d.last
	}
	d.last = addr
	class := arch.Page4K
	if !cfg.Uniform {
		class = diffClasses[flags&7]
	}
	switch k := kind & 0x0f; {
	case k <= 4:
		d.samePtr("Lookup", d.got.Lookup(addr), d.want.Lookup(addr))
	case k <= 8:
		d.insert(Entry{
			Class:    class,
			Tag:      addr &^ class.Mask(),
			Target:   (addr &^ class.Mask()) ^ uint64(flags)<<32 | 1<<40,
			Wired:    flags&0x18 == 0x18 && page&3 == 0,
			ReadOnly: page&1 != 0,
		})
	case k == 9:
		d.samePtr("Probe", d.got.Probe(addr), d.want.Probe(addr))
	case k <= 11:
		g, w := d.got.Probe(addr), d.want.Probe(addr)
		d.samePtr("FastHit probe", g, w)
		if g != nil && w != nil {
			d.got.FastHit(g)
			d.want.FastHit(w)
		}
	case k <= 13:
		if g, w := d.got.Purge(addr), d.want.Purge(addr); g != w {
			d.tb.Fatalf("op %d: Purge(%#x) = %v, reference %v", d.op, addr, g, w)
		}
	case k == 14:
		d.purgeRange(addr&^arch.PageMask, class.Bytes())
	default:
		if page&0xff < 0x20 {
			d.got.PurgeAll()
			d.want.PurgeAll()
		} else {
			d.samePtr("Lookup", d.got.Lookup(addr), d.want.Lookup(addr))
		}
	}
}

// insert installs e in both, first keeping the contents overlap-free the
// way the VM does: when e's range overlaps any entry other than the one
// covering e.Tag (which Insert replaces), the range is purged first. An
// insert that would overlap a wired entry, or wire the last way of a
// set, is dropped.
func (d *tlbDiff) insert(e Entry) {
	lo, hi := e.Tag, e.Tag+e.Class.Bytes()
	overlaps, wired := false, false
	set := d.want.setFor(e.Tag)
	setWired := 0
	for i := range set.entries {
		if set.entries[i].Valid && set.entries[i].Wired {
			setWired++
		}
	}
	for _, s := range d.want.slots() {
		if !s.Valid || s.covers(e.Tag) || s.Tag >= hi || s.Tag+s.Class.Bytes() <= lo {
			continue
		}
		overlaps = true
		wired = wired || s.Wired
	}
	if wired || (e.Wired && setWired >= len(set.entries)-1) {
		return
	}
	if overlaps {
		d.purgeRange(lo, hi-lo)
	}
	gi, gold := d.got.insert(e)
	wi, wold := d.want.Insert(e)
	d.samePtr("Insert", gi, wi)
	if gold != wold {
		d.tb.Fatalf("op %d: Insert(%+v) evicted %+v, reference %+v", d.op, e, gold, wold)
	}
}

func (d *tlbDiff) purgeRange(base, size uint64) {
	if g, w := d.got.PurgeRange(base, size), d.want.PurgeRange(base, size); g != w {
		d.tb.Fatalf("op %d: PurgeRange(%#x, %#x) = %d, reference %d", d.op, base, size, g, w)
	}
}

// slotIndex returns e's position among all of t's slots, or -1 for nil.
func slotIndex(t *TLB, e *Entry) int {
	n := 0
	for si := range t.sets {
		for i := range t.sets[si].entries {
			if &t.sets[si].entries[i] == e {
				return n
			}
			n++
		}
	}
	if e != nil {
		panic("entry pointer outside the TLB")
	}
	return -1
}

// samePtr requires both results to name the same slot.
func (d *tlbDiff) samePtr(what string, g, w *Entry) {
	wi := -1
	for i, s := range d.want.slots() {
		if s == w {
			wi = i
		}
	}
	if gi := slotIndex(d.got, g); gi != wi {
		d.tb.Fatalf("op %d: %s returned slot %d, reference slot %d", d.op, what, gi, wi)
	}
}

// compare checks every observable piece of state, plus the private
// state the observable behaviour derives from: slot contents with NRU
// bits, per-set counters, the last-hit slot and the index.
func (d *tlbDiff) compare() {
	g, w := d.got, d.want
	fail := func(format string, args ...any) {
		d.tb.Helper()
		d.tb.Fatalf("op %d: "+format, append([]any{d.op}, args...)...)
	}
	if g.Stats != w.Stats {
		fail("Stats %+v, reference %+v", g.Stats, w.Stats)
	}
	if g.Gen() != w.Gen() {
		fail("Gen %d, reference %d", g.Gen(), w.Gen())
	}
	var valid, wantValid []Entry
	var reach uint64
	g.VisitValid(func(e Entry) { valid = append(valid, e) })
	for i, s := range w.slots() {
		gs := d.slot(i)
		if *gs != *s {
			fail("slot %d holds %+v, reference %+v", i, *gs, *s)
		}
		if gs.Referenced() != s.Referenced() {
			fail("slot %d Referenced %v, reference %v", i, gs.Referenced(), s.Referenced())
		}
		if s.Valid {
			wantValid = append(wantValid, *s)
			reach += s.Class.Bytes()
		}
	}
	if len(valid) != len(wantValid) {
		fail("VisitValid saw %d entries, reference %d", len(valid), len(wantValid))
	}
	for i := range valid {
		if valid[i] != wantValid[i] {
			fail("VisitValid entry %d is %+v, reference %+v", i, valid[i], wantValid[i])
		}
	}
	if g.ValidCount() != len(wantValid) {
		fail("ValidCount %d, reference %d", g.ValidCount(), len(wantValid))
	}
	if g.Reach() != reach {
		fail("Reach %d, reference %d", g.Reach(), reach)
	}
	for si := range g.sets {
		if g.sets[si].valid != w.sets[si].valid || g.sets[si].nruSet != w.sets[si].nruSet {
			fail("set %d counters valid=%d nruSet=%d, reference valid=%d nruSet=%d", si,
				g.sets[si].valid, g.sets[si].nruSet, w.sets[si].valid, w.sets[si].nruSet)
		}
	}
	d.samePtr("lastHit", g.lastHit, w.lastHit)
	if g.idx != nil {
		if err := g.idx.check(g.sets[0].entries); err != "" {
			fail("index: %s", err)
		}
	}
}

// slot returns the real TLB's n-th slot across all sets.
func (d *tlbDiff) slot(n int) *Entry {
	ways := d.got.cfg.Ways
	return &d.got.sets[n/ways].entries[n%ways]
}

// check audits the index against the entries it indexes: every valid
// entry is found at its own slot from its key, no bucket names an
// invalid or mismatched slot, and the class mask and counts agree.
func (x *index) check(entries []Entry) string {
	var count [arch.NumPageClasses]int32
	var classes uint32
	n := 0
	for i := range entries {
		e := &entries[i]
		if !e.Valid {
			continue
		}
		count[e.Class]++
		classes |= 1 << e.Class
		n++
		if got := x.find(e.Tag); got != i {
			return "entry " + e.Class.String() + " found at wrong slot"
		}
	}
	used := 0
	for _, b := range x.buckets {
		if b.key == 0 {
			continue
		}
		used++
		e := &entries[b.slot]
		if !e.Valid || indexKey(e.Tag, e.Class) != b.key {
			return "bucket names a slot that does not hold its key"
		}
	}
	if used != n || count != x.count || classes != x.classes {
		return "bucket count, class counts or class mask disagree with the entries"
	}
	return ""
}

// randomOps encodes n operations for the differential driver. The pages
// come from a working set of ws pages so lookups hit as well as miss.
func randomOps(rng *rand.Rand, n, ws int) []byte {
	data := make([]byte, 0, n*opBytes)
	for i := 0; i < n; i++ {
		page := rng.Intn(ws)
		data = append(data, byte(rng.Intn(256)), byte(page), byte(page>>8), byte(rng.Intn(256)))
	}
	return data
}

// TestIndexMatchesLinearScan drives the indexed TLB and the linear-scan
// reference model with seeded random operation sequences over mixed
// page classes and wired entries, comparing all state after every
// operation.
func TestIndexMatchesLinearScan(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for _, cfg := range diffGeoms {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			// Working sets from half the TLB to four times it.
			ws := cfg.Entries/2 + rng.Intn(4*cfg.Entries)
			newTLBDiff(t, cfg).run(randomOps(rng, 3000, ws))
		}
	}
}

// FuzzTLBOps runs the differential driver on arbitrary operation
// streams. The first byte picks the geometry.
func FuzzTLBOps(f *testing.F) {
	for i := range diffGeoms {
		rng := rand.New(rand.NewSource(int64(i)))
		f.Add(append([]byte{byte(i)}, randomOps(rng, 64, diffGeoms[i].Entries)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := diffGeoms[int(data[0])%len(diffGeoms)]
		newTLBDiff(t, cfg).run(data[1:])
	})
}
