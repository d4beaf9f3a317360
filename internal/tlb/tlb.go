// Package tlb implements a generic set-associative translation lookaside
// buffer with not-recently-used (NRU) replacement and variable page sizes
// (superpages). Two instances appear in the simulated machine:
//
//   - the processor's unified I/D TLB: fully associative, single cycle,
//     superpage-capable, NRU-replaced, sizes 64-256 entries (paper §3.2);
//   - the memory-controller TLB (MTLB): set-associative (2-way by
//     default), single base page size, NRU-replaced (paper §2.2, §3.4).
//
// The TLB is address-space agnostic: it maps one 64-bit address space onto
// another. The CPU instance maps virtual to "physical" (possibly shadow)
// addresses; the MTLB instance maps shadow physical to real physical.
//
// The implementation is tuned for simulation throughput. A repeat hit on
// the most recently used entry is answered without any search. Otherwise
// a one-set (fully associative) TLB finds the covering entry through an
// index keyed by (page-size class, class-aligned tag), probing only the
// classes currently resident; a multi-set TLB picks the set by page
// number and scans its few ways. NRU aging is maintained with per-set
// counters, so the common case is O(1) either way.
package tlb

import (
	"fmt"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/stats"
)

// Entry is one TLB mapping. Tag and Target are byte addresses aligned to
// the mapping's page-class size; a mapping of class c covers
// [Tag, Tag+c.Bytes()).
type Entry struct {
	Valid  bool
	Wired  bool // never replaced (the paper's kernel block TLB entry)
	Class  arch.PageSizeClass
	Tag    uint64 // source-space base address, class-aligned
	Target uint64 // destination-space base address, class-aligned

	// Protection bits, held only in the processor TLB (paper §2.1):
	// identical for every base page under a superpage.
	ReadOnly   bool
	Supervisor bool

	nru  bool   // NRU referenced bit
	mask uint64 // Class.Mask(), precomputed when the entry is installed
}

// Translate applies the mapping to an address that hits this entry.
// It works on any entry value, installed or not, so the mask is derived
// from the class rather than read from the install-time cache.
func (e *Entry) Translate(addr uint64) uint64 {
	return e.Target | (addr & e.Class.Mask())
}

// Referenced reports the entry's NRU referenced bit. While it is set,
// touching the entry is a provable no-op (touch early-returns before
// any state change), so a batched consumer holding a generation-checked
// pointer may defer the touch as a pure hit count.
func (e *Entry) Referenced() bool { return e.nru }

// covers reports whether addr falls in this entry's mapped range. It
// relies on the precomputed offset mask, so it must only be called on
// entries that went through Insert or Refill (every stored entry does);
// recomputing Class.Mask per probed entry dominated simulation profiles.
func (e *Entry) covers(addr uint64) bool {
	return e.Valid && addr&^e.mask == e.Tag
}

// Config sizes a TLB.
type Config struct {
	Entries int // total entries; must be a multiple of Ways
	Ways    int // associativity; Ways == Entries means fully associative
	// UniformClass forces a single page size. Required whenever the TLB
	// has more than one set, because set indexing needs a fixed page
	// shift. The MTLB uses Page4K (paper §2.2 reason 3).
	UniformClass arch.PageSizeClass
	Uniform      bool
}

// FullyAssociative builds the processor-TLB configuration.
func FullyAssociative(entries int) Config {
	return Config{Entries: entries, Ways: entries}
}

// SetAssociative builds an MTLB-style configuration: ways-way associative
// over a single 4 KB page size.
func SetAssociative(entries, ways int) Config {
	return Config{Entries: entries, Ways: ways, Uniform: true, UniformClass: arch.Page4K}
}

// set is one associative set with NRU bookkeeping counters.
type set struct {
	entries []Entry
	valid   int // valid entries
	nruSet  int // valid entries with the NRU bit set

	// victimFrom bounds the NRU victim search from below: every valid
	// entry before it is wired or has its NRU bit set. Between agings
	// NRU bits are only ever set and a refilled slot starts referenced,
	// so the bound only needs resetting when age clears bits, and a
	// victim search resumes where the last one stopped instead of
	// rescanning the referenced prefix.
	victimFrom int
}

// TLB is a set-associative translation cache with NRU replacement.
type TLB struct {
	cfg     Config
	sets    []set
	lastHit *Entry // MRU short-circuit; cleared on any mutation
	Stats   stats.HitMiss

	// setShift/setMask precompute set indexing for power-of-two set
	// counts; setMask is zero when the count is not a power of two and
	// indexing falls back to modulo.
	setShift uint
	setMask  uint64

	// idx finds entries in a one-set TLB; nil when there are several
	// sets, where the set index already narrows a search to Ways entries.
	idx *index

	// gen counts mapping mutations (Insert, Purge, PurgeAll, PurgeRange).
	// External memos of TLB contents — the CPU's fast-path translation
	// memo — record the generation they were built at and die when it
	// moves, so no mutation path needs to know who is memoizing.
	gen uint64
}

// New builds a TLB. It panics on malformed configurations (non-divisible
// ways, multi-set without a uniform page size) because those are
// programming errors, not runtime conditions.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", cfg.Entries, cfg.Ways))
	}
	numSets := cfg.Entries / cfg.Ways
	if numSets > 1 && !cfg.Uniform {
		panic("tlb: multi-set TLB requires a uniform page class for indexing")
	}
	sets := make([]set, numSets)
	for i := range sets {
		sets[i].entries = make([]Entry, cfg.Ways)
	}
	t := &TLB{cfg: cfg, sets: sets}
	t.setShift = cfg.UniformClass.Shift()
	if numSets&(numSets-1) == 0 {
		t.setMask = uint64(numSets - 1)
	}
	if numSets == 1 {
		t.idx = newIndex(cfg.Entries)
	}
	return t
}

// Entries returns the total entry count.
func (t *TLB) Entries() int { return t.cfg.Entries }

// Ways returns the associativity.
func (t *TLB) Ways() int { return t.cfg.Ways }

// Sets returns the number of sets.
func (t *TLB) Sets() int { return len(t.sets) }

// setFor returns the set an address maps to. One-set TLBs always use set
// 0; multi-set TLBs index by page number with a precomputed shift and,
// for power-of-two set counts, a mask instead of a modulo
// (TestSetIndexEquivalence pins the two forms equal).
func (t *TLB) setFor(addr uint64) *set {
	if len(t.sets) == 1 {
		return &t.sets[0]
	}
	return &t.sets[t.setIndex(addr)]
}

// setIndex computes the set number for addr.
func (t *TLB) setIndex(addr uint64) uint64 {
	page := addr >> t.setShift
	if t.setMask != 0 {
		return page & t.setMask
	}
	return page % uint64(len(t.sets))
}

// Gen returns the TLB's mapping generation: it advances on every Insert
// and on every purge, so any externally memoized translation is valid
// only while the generation it was recorded at still holds.
func (t *TLB) Gen() uint64 { return t.gen }

// FastHit replays the bookkeeping of a Lookup hit — the hit counter and
// NRU referenced-bit maintenance — on an entry the caller already knows
// covers the address, skipping the search for it. e must be a valid
// entry of t; the CPU's fast path guarantees this by discarding its memo
// whenever Gen advances.
func (t *TLB) FastHit(e *Entry) {
	t.Stats.Hit()
	t.touch(t.setFor(e.Tag), e)
}

// Lookup finds the entry covering addr. On a hit it marks the entry
// recently used and returns it; on a miss it returns nil. Stats are
// updated. Lookup does not check protection; callers decide how to treat
// ReadOnly/Supervisor because fault semantics differ between the CPU TLB
// and the MTLB.
func (t *TLB) Lookup(addr uint64) *Entry {
	if t.lastHit != nil && t.lastHit.covers(addr) {
		t.Stats.Hit()
		t.touch(t.setFor(addr), t.lastHit)
		return t.lastHit
	}
	s := t.setFor(addr)
	if i := t.slotOf(s, addr); i >= 0 {
		e := &s.entries[i]
		t.Stats.Hit()
		t.touch(s, e)
		t.lastHit = e
		return e
	}
	t.Stats.Miss()
	return nil
}

// Probe is like Lookup but does not update stats or NRU state; used by
// tests and by the OS model to inspect TLB contents non-destructively.
func (t *TLB) Probe(addr uint64) *Entry {
	s := t.setFor(addr)
	if i := t.slotOf(s, addr); i >= 0 {
		return &s.entries[i]
	}
	return nil
}

// slotOf returns the index in s, addr's set, of the valid entry covering
// addr, or -1. A one-set TLB asks its index; a multi-set TLB scans the
// set's ways.
func (t *TLB) slotOf(s *set, addr uint64) int {
	if t.idx != nil {
		return t.idx.find(addr)
	}
	for i := range s.entries {
		if s.entries[i].covers(addr) {
			return i
		}
	}
	return -1
}

// touch sets the NRU bit, ageing the set (clearing every other bit) when
// all valid entries would otherwise be marked.
func (t *TLB) touch(s *set, hit *Entry) {
	if hit.nru {
		return
	}
	hit.nru = true
	s.nruSet++
	if s.nruSet == s.valid {
		t.age(s, hit)
	}
}

// age clears the NRU bits of every valid entry except keep.
func (t *TLB) age(s *set, keep *Entry) {
	for i := range s.entries {
		e := &s.entries[i]
		if e.Valid && e != keep {
			e.nru = false
		}
	}
	s.nruSet = 1
	if keep == nil || !keep.Valid {
		s.nruSet = 0
	}
	s.victimFrom = 0
}

// Insert installs a mapping, evicting an NRU victim if the set is full.
// It returns the evicted entry (Valid=false in the return if nothing
// valid was displaced). Pre-existing entries covering the same range are
// overwritten in place, which models TLB designs that "automatically
// discard pre-existing mappings for the same virtual range" (paper §2.3).
func (t *TLB) Insert(e Entry) Entry {
	_, old := t.insert(e)
	return old
}

// Install is Insert for callers that go on to use the new mapping: it
// returns the installed entry instead of the evicted one.
func (t *TLB) Install(e Entry) *Entry {
	installed, _ := t.insert(e)
	return installed
}

// insert installs e and returns both the slot now holding it and the
// entry it displaced. The slot is the one holding a mapping that covers
// e.Tag, else the lowest-index free one, else the lowest-index non-wired
// entry with a clear NRU bit, after ageing the set if every such bit is
// set.
func (t *TLB) insert(e Entry) (*Entry, Entry) {
	if t.cfg.Uniform && e.Class != t.cfg.UniformClass {
		panic(fmt.Sprintf("tlb: inserting %v entry into uniform %v TLB", e.Class, t.cfg.UniformClass))
	}
	if e.Tag&e.Class.Mask() != 0 || e.Target&e.Class.Mask() != 0 {
		panic(fmt.Sprintf("tlb: unaligned %v mapping %#x -> %#x", e.Class, e.Tag, e.Target))
	}
	e.Valid = true
	e.nru = false // the touch below sets it
	e.mask = e.Class.Mask()
	t.lastHit = nil
	t.gen++
	s := t.setFor(e.Tag)

	i := t.slotOf(s, e.Tag)
	switch {
	case i >= 0: // replace the existing mapping for the same range
	case s.valid < len(s.entries):
		i = freeSlot(s)
		s.valid++
	default:
		i = t.victim(s)
	}
	old := s.entries[i]
	if old.Valid {
		if old.nru {
			s.nruSet--
		}
		if t.idx != nil {
			t.idx.remove(&old)
		}
	}
	s.entries[i] = e
	if t.idx != nil {
		t.idx.add(&e, i)
	}
	t.touch(s, &s.entries[i])
	return &s.entries[i], old
}

// freeSlot returns the index of the first invalid entry of a set that
// is not full.
func freeSlot(s *set) int {
	i := 0
	for s.entries[i].Valid {
		i++
	}
	return i
}

// victim picks the entry a full set evicts: the first non-wired entry
// with a clear referenced bit; if none, it ages the set and retries.
func (t *TLB) victim(s *set) int {
	for pass := 0; pass < 2; pass++ {
		for i := s.victimFrom; i < len(s.entries); i++ {
			if !s.entries[i].Wired && !s.entries[i].nru {
				s.victimFrom = i
				return i
			}
		}
		t.age(s, nil)
	}
	panic("tlb: set entirely wired; cannot insert")
}

// purgeAt invalidates entry i of set s, maintaining counters.
func (t *TLB) purgeAt(s *set, i int) {
	if s.entries[i].nru {
		s.nruSet--
	}
	if t.idx != nil {
		t.idx.remove(&s.entries[i])
	}
	s.entries[i] = Entry{}
	s.valid--
	t.lastHit = nil
	t.gen++
}

// Purge invalidates any entry covering addr and reports whether one was
// found (the paper's per-mapping TLB shootdown).
func (t *TLB) Purge(addr uint64) bool {
	s := t.setFor(addr)
	if i := t.slotOf(s, addr); i >= 0 {
		t.purgeAt(s, i)
		return true
	}
	return false
}

// PurgeAll invalidates every non-wired entry. The generation advances
// even when the TLB held nothing purgeable, so a context switch always
// kills externally memoized translations.
func (t *TLB) PurgeAll() {
	t.gen++
	for si := range t.sets {
		s := &t.sets[si]
		for i := range s.entries {
			if s.entries[i].Valid && !s.entries[i].Wired {
				t.purgeAt(s, i)
			}
		}
	}
}

// PurgeRange invalidates all non-wired entries overlapping [base,
// base+size) and returns how many were dropped. Used when the OS remaps a
// virtual region onto shadow superpages.
func (t *TLB) PurgeRange(base, size uint64) int {
	n := 0
	for si := range t.sets {
		s := &t.sets[si]
		for i := range s.entries {
			e := &s.entries[i]
			if !e.Valid || e.Wired {
				continue
			}
			lo, hi := e.Tag, e.Tag+e.Class.Bytes()
			if lo < base+size && base < hi {
				t.purgeAt(s, i)
				n++
			}
		}
	}
	return n
}

// VisitValid calls fn with a copy of every valid entry. It does not
// touch stats, NRU state, or the generation, so external checkers (the
// invariant harness) can audit TLB contents without perturbing the
// simulation.
func (t *TLB) VisitValid(fn func(Entry)) {
	for si := range t.sets {
		for i := range t.sets[si].entries {
			if t.sets[si].entries[i].Valid {
				fn(t.sets[si].entries[i])
			}
		}
	}
}

// ValidCount returns the number of valid entries.
func (t *TLB) ValidCount() int {
	n := 0
	for i := range t.sets {
		n += t.sets[i].valid
	}
	return n
}

// Reach returns the total bytes currently mapped by valid entries — the
// paper's headline metric.
func (t *TLB) Reach() uint64 {
	var r uint64
	for si := range t.sets {
		for i := range t.sets[si].entries {
			if t.sets[si].entries[i].Valid {
				r += t.sets[si].entries[i].Class.Bytes()
			}
		}
	}
	return r
}
