package invariant

import (
	"strings"
	"testing"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/check"
	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/tlb"
)

// mtlbCell returns a registered experiment cell with an MTLB fitted, so
// tests audit the full catalogue (shadow table, MTLB, partition) and
// not just the conventional subset.
func mtlbCell(t *testing.T) exp.Cell {
	t.Helper()
	for _, d := range exp.Descriptors() {
		if d.Cells == nil {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if c.Cfg.MTLB != nil {
				return c
			}
		}
	}
	t.Fatal("no registered cell has an MTLB")
	return exp.Cell{}
}

// TestCleanRunPasses attaches the checker in record mode to a normal
// run and expects audits to have happened and found nothing.
func TestCleanRunPasses(t *testing.T) {
	c := mtlbCell(t)
	s := sim.New(c.Cfg)
	chk := Attach(s, Options{})
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(w)
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported violations: %v", vs)
	}
	if chk.Passes == 0 {
		t.Fatal("no audit passes ran — hooks are not wired")
	}
	if check.Enabled && chk.AccessChecks == 0 {
		t.Fatal("invariants tag is on but no per-access checks fired")
	}
}

// TestCorruptionsDetected plants distinct corruptions into a finished
// system and expects the matching catalogue rule to fire for each.
func TestCorruptionsDetected(t *testing.T) {
	c := mtlbCell(t)
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *sim.System {
		s := sim.New(c.Cfg)
		s.Run(w)
		return s
	}

	t.Run("shadow.bits", func(t *testing.T) {
		s := fresh()
		// A ref bit on an unmapped shadow page: the MTLB only maintains
		// bits on valid entries, so this state is unreachable.
		spa := findShadowPage(s, false)
		s.VM.STable.Set(spa, core.TableEntry{Ref: true})
		expectRule(t, s, "shadow.bits")
	})
	t.Run("shadow.backing", func(t *testing.T) {
		s := fresh()
		// Two valid shadow pages sharing one frame.
		a := findShadowPage(s, true)
		b := findShadowPage(s, false)
		s.VM.STable.Set(b, core.TableEntry{PFN: s.VM.STable.Get(a).PFN, Valid: true})
		expectRule(t, s, "shadow.backing")
	})
	t.Run("translator.coherent", func(t *testing.T) {
		s := fresh()
		// Invalidate a table entry behind the translator's back: a cached
		// translation for it becomes a missed shootdown. Force the page
		// into the backend first.
		spa := findShadowPage(s, true)
		if _, err := s.Translator.Translate(spa, false); err != nil {
			t.Fatalf("priming translator: %v", err)
		}
		ent := s.VM.STable.Get(spa)
		ent.Valid = false
		s.VM.STable.Set(spa, ent)
		expectRule(t, s, "translator.coherent")
	})
	t.Run("tlb.overlap", func(t *testing.T) {
		s := fresh()
		// A 4 KB entry, then a 64 KB entry over the same 64 KB range
		// whose tag is a different 4 KB page: Insert replaces only an
		// entry covering the new tag, so both stay resident.
		const base = 0x7f00_0000
		s.CPUTLB.Insert(tlb.Entry{Class: arch.Page4K, Tag: base + 0x3000, Target: 0x1000})
		s.CPUTLB.Insert(tlb.Entry{Class: arch.Page64K, Tag: base, Target: 0x10_0000})
		expectRule(t, s, "tlb.overlap")
	})
}

// smpCell returns a registered multicore cell with an MTLB and more
// than one CPU, so the multicore catalogue audits real cross-CPU state.
func smpCell(t *testing.T) exp.Cell {
	t.Helper()
	for _, d := range exp.Descriptors() {
		if d.ID != "smp" {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if c.Cfg.MTLB != nil && c.Cfg.SMP != nil && c.Cfg.SMP.CPUs > 1 {
				return c
			}
		}
	}
	t.Fatal("no registered multicore cell has an MTLB")
	return exp.Cell{}
}

// TestSMPCleanRunPasses attaches the multicore checker in record mode
// to a normal parallel run and expects audits to have happened — at
// quantum boundaries among others — and found nothing.
func TestSMPCleanRunPasses(t *testing.T) {
	c := smpCell(t)
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSMP(c.Cfg, w)
	chk := AttachSMP(s, Options{})
	s.Run()
	if vs := chk.Violations(); len(vs) != 0 {
		t.Fatalf("clean run reported violations: %v", vs)
	}
	if chk.Passes == 0 {
		t.Fatal("no audit passes ran — hooks are not wired")
	}
}

// TestSMPCorruptionsDetected plants multicore corruptions into a
// finished parallel system and expects the per-CPU rules to fire.
func TestSMPCorruptionsDetected(t *testing.T) {
	c := smpCell(t)
	w, err := exp.MakeWorkload(c.Workload, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSMP(c.Cfg, w)
	s.Run()

	// A TLB entry on CPU 1 that no page table can produce is exactly
	// what a missed shootdown IPI leaves behind.
	s.CPUs[1].TLB.Insert(tlb.Entry{
		Tag: uint64(arch.VAddr(0x7f00_0000)), Class: arch.Page4K,
		Target: uint64(arch.PAddr(0x1000)), Valid: true,
	})
	vs := CheckSMP(s)
	found := false
	for _, v := range vs {
		if v.Rule == "shootdown.ipi" && strings.HasPrefix(v.Detail, "cpu 1: ") {
			found = true
		}
		if v.Rule == "tlb.backed" {
			t.Errorf("multicore audit reported the uniprocessor rule: %v", v)
		}
	}
	if !found {
		t.Fatalf("planted stale TLB entry on CPU 1 not detected, got: %v", vs)
	}
}

// findShadowPage returns a shadow page whose entry validity matches
// valid, skipping the test when the run left none in that state.
func findShadowPage(s *sim.System, valid bool) arch.PAddr {
	space := s.VM.STable.Space()
	for i := uint64(0); i < space.Pages(); i++ {
		spa := space.PageAddr(i)
		if s.VM.STable.Get(spa).Valid == valid {
			return spa
		}
	}
	panic("no shadow page in requested state")
}

// expectRule audits the system and requires at least one violation of
// the named rule (and tolerates companions — one corruption can trip
// several related rules).
func expectRule(t *testing.T, s *sim.System, rule string) {
	t.Helper()
	vs := Check(s)
	if len(vs) == 0 {
		t.Fatalf("corruption not detected, want rule %s", rule)
	}
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	var got []string
	for _, v := range vs {
		got = append(got, v.Rule+": "+v.Detail)
	}
	t.Fatalf("want rule %s, got:\n%s", rule, strings.Join(got, "\n"))
}
