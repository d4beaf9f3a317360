package tlb

import (
	"fmt"

	"shadowtlb/internal/stats"
)

// refTLB is the reference model for the differential tests: the TLB as
// it was before one-set TLBs gained their index, finding entries by
// scanning every way of the set, taking the first covering slot, and
// searching for NRU victims from the first entry every time. It shares
// Entry (and so covers, touch-visible NRU bits and Translate) with the
// real TLB and nothing else.
type refTLB struct {
	cfg     Config
	sets    []refSet
	lastHit *Entry
	Stats   stats.HitMiss
	gen     uint64

	// written collects the slots Insert wrote or purgeAt cleared since
	// the differential driver last reset it: exactly the slots whose
	// stamp may change.
	written map[*Entry]bool
}

type refSet struct {
	entries []Entry
	valid   int
	nruSet  int
}

func newRef(cfg Config) *refTLB {
	sets := make([]refSet, cfg.Entries/cfg.Ways)
	for i := range sets {
		sets[i].entries = make([]Entry, cfg.Ways)
	}
	return &refTLB{cfg: cfg, sets: sets, written: map[*Entry]bool{}}
}

func (t *refTLB) setFor(addr uint64) *refSet {
	page := addr >> t.cfg.UniformClass.Shift()
	return &t.sets[page%uint64(len(t.sets))]
}

func (t *refTLB) Gen() uint64 { return t.gen }

func (t *refTLB) FastHit(e *Entry) {
	t.Stats.Hit()
	t.touch(t.setFor(e.Tag), e)
}

func (t *refTLB) Lookup(addr uint64) *Entry {
	if t.lastHit != nil && t.lastHit.covers(addr) {
		t.Stats.Hit()
		t.touch(t.setFor(addr), t.lastHit)
		return t.lastHit
	}
	s := t.setFor(addr)
	for i := range s.entries {
		e := &s.entries[i]
		if e.covers(addr) {
			t.Stats.Hit()
			t.touch(s, e)
			t.lastHit = e
			return e
		}
	}
	t.Stats.Miss()
	return nil
}

func (t *refTLB) Probe(addr uint64) *Entry {
	s := t.setFor(addr)
	for i := range s.entries {
		if s.entries[i].covers(addr) {
			return &s.entries[i]
		}
	}
	return nil
}

func (t *refTLB) touch(s *refSet, hit *Entry) {
	if hit.nru {
		return
	}
	hit.nru = true
	s.nruSet++
	if s.nruSet == s.valid {
		t.age(s, hit)
	}
}

func (t *refTLB) age(s *refSet, keep *Entry) {
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
}

// Insert returns the slot now holding e and the entry it displaced.
func (t *refTLB) Insert(e Entry) (*Entry, Entry) {
	if t.cfg.Uniform && e.Class != t.cfg.UniformClass {
		panic(fmt.Sprintf("tlb: inserting %v entry into uniform %v TLB", e.Class, t.cfg.UniformClass))
	}
	if e.Tag&e.Class.Mask() != 0 || e.Target&e.Class.Mask() != 0 {
		panic(fmt.Sprintf("tlb: unaligned %v mapping %#x -> %#x", e.Class, e.Tag, e.Target))
	}
	e.Valid = true
	e.nru = false
	e.mask = e.Class.Mask()
	t.lastHit = nil
	t.gen++
	e.stamp = t.gen
	s := t.setFor(e.Tag)
	for i := range s.entries {
		if s.entries[i].covers(e.Tag) {
			old := s.entries[i]
			if old.nru {
				s.nruSet--
			}
			s.entries[i] = e
			t.written[&s.entries[i]] = true
			t.touch(s, &s.entries[i])
			return &s.entries[i], old
		}
	}
	for i := range s.entries {
		if !s.entries[i].Valid {
			s.entries[i] = e
			s.valid++
			t.written[&s.entries[i]] = true
			t.touch(s, &s.entries[i])
			return &s.entries[i], Entry{}
		}
	}
	victim := -1
	for pass := 0; pass < 2 && victim < 0; pass++ {
		for i := range s.entries {
			if !s.entries[i].Wired && !s.entries[i].nru {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.age(s, nil)
		}
	}
	if victim < 0 {
		panic("tlb: set entirely wired; cannot insert")
	}
	old := s.entries[victim]
	if old.nru {
		s.nruSet--
	}
	s.entries[victim] = e
	t.written[&s.entries[victim]] = true
	t.touch(s, &s.entries[victim])
	return &s.entries[victim], old
}

func (t *refTLB) purgeAt(s *refSet, i int) {
	if s.entries[i].nru {
		s.nruSet--
	}
	s.entries[i] = Entry{}
	t.written[&s.entries[i]] = true
	s.valid--
	t.lastHit = nil
	t.gen++
}

func (t *refTLB) Purge(addr uint64) bool {
	s := t.setFor(addr)
	for i := range s.entries {
		if s.entries[i].covers(addr) {
			t.purgeAt(s, i)
			return true
		}
	}
	return false
}

func (t *refTLB) PurgeAll() {
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

func (t *refTLB) PurgeRange(base, size uint64) int {
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

// slots returns every slot of every set in order, valid or not.
func (t *refTLB) slots() []*Entry {
	var out []*Entry
	for si := range t.sets {
		for i := range t.sets[si].entries {
			out = append(out, &t.sets[si].entries[i])
		}
	}
	return out
}
