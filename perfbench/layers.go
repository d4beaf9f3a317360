package main

import (
	"time"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/tlb"
	"shadowtlb/internal/workload"
)

// functionalNsPerRef runs the programs on workload.MemEnv, with no
// timing model, and returns host nanoseconds per memory reference: the
// floor under the simulator's wall time.
func functionalNsPerRef(progs []workload.Workload) float64 {
	var d time.Duration
	var refs uint64
	for _, w := range progs {
		env := workload.NewMemEnv()
		t0 := time.Now()
		w.Run(env)
		d += time.Since(t0)
		refs += env.Loads + env.Stores
	}
	return ratio(float64(d.Nanoseconds()), float64(refs))
}

// Capture keeps a bounded, evenly spread sample of a reference stream:
// whole windows of captureWindow consecutive references, every stride-th
// window, the stride doubling whenever captureMax would be exceeded.
const (
	captureWindow = 4096
	captureMax    = 1 << 20
)

type capRef struct {
	va    arch.VAddr
	store bool
}

// captureEnv is a functional environment that samples the references
// passing through it.
type captureEnv struct {
	*workload.MemEnv
	refs   []capRef
	seen   int
	stride int
}

func (c *captureEnv) note(va arch.VAddr, store bool) {
	i := c.seen
	c.seen++
	if (i/captureWindow)%c.stride != 0 {
		return
	}
	if i%captureWindow == 0 && len(c.refs)+captureWindow > captureMax {
		kept := c.refs[:0]
		for k := 0; k*captureWindow < len(c.refs); k += 2 {
			kept = append(kept, c.refs[k*captureWindow:(k+1)*captureWindow]...)
		}
		c.refs = kept
		c.stride *= 2
		if (i/captureWindow)%c.stride != 0 {
			return
		}
	}
	c.refs = append(c.refs, capRef{va, store})
}

func (c *captureEnv) Load(va arch.VAddr, size int) uint64 {
	c.note(va, false)
	return c.MemEnv.Load(va, size)
}

func (c *captureEnv) Store(va arch.VAddr, size int, val uint64) {
	c.note(va, true)
	c.MemEnv.Store(va, size, val)
}

// Stream overrides MemEnv's, which would bypass the capture.
func (c *captureEnv) Stream(refs []workload.Ref) {
	for _, r := range refs {
		if r.Store {
			c.Store(r.VA, int(r.Size), r.Val)
		} else {
			c.Load(r.VA, int(r.Size))
		}
		c.Step(int(r.Step))
	}
}

// captureRefs samples the programs' reference streams.
func captureRefs(progs []workload.Workload) []capRef {
	var all []capRef
	for _, w := range progs {
		c := &captureEnv{MemEnv: workload.NewMemEnv(), stride: 1}
		w.Run(c)
		all = append(all, c.refs...)
	}
	return all
}

// layerTimings times standalone layer models at the paper's geometries,
// fed the captured stream: a 64-entry fully associative CPU TLB (with an
// Insert on every miss), the default data cache, and the DRAM word
// accessors. Virtual pages are mapped to frames of a scattered
// allocator over the paper's 256 MB, as the simulated VM would.
func layerTimings(refs []capRef) map[string]float64 {
	cfg := sim.Default()
	frames := mem.NewFrameAlloc(sim.UserFrameBase/arch.PageSize,
		(cfg.DRAMBytes-sim.UserFrameBase)/arch.PageSize, cfg.AllocOrder)
	frameOf := map[uint64]uint64{}
	pas := make([]arch.PAddr, len(refs))
	for i, r := range refs {
		vpn := r.va.PageNum()
		f, ok := frameOf[vpn]
		if !ok {
			var err error
			if f, err = frames.Alloc(); err != nil {
				refs, pas = refs[:i], pas[:i] // more pages than DRAM: time what fits
				break
			}
			frameOf[vpn] = f
		}
		pas[i] = arch.PAddr(f<<arch.PageShift | r.va.PageOff())
	}

	t := tlb.New(tlb.FullyAssociative(64))
	c := cache.New(cfg.Cache)
	d := mem.NewDRAM(cfg.DRAMBytes)
	var sink uint64
	m := map[string]float64{
		"tlb.lookup_ns": nsPerRef(len(refs), func() {
			for i, r := range refs {
				if t.Lookup(uint64(r.va)) == nil {
					t.Insert(tlb.Entry{
						Class:  arch.Page4K,
						Tag:    uint64(r.va) &^ arch.PageMask,
						Target: uint64(pas[i]) &^ arch.PageMask,
					})
				}
			}
		}),
		"cache.access_ns": nsPerRef(len(refs), func() {
			for i, r := range refs {
				kind := arch.Read
				if r.store {
					kind = arch.Write
				}
				c.Access(r.va, pas[i], kind)
			}
		}),
		"mem.read_ns": nsPerRef(len(pas), func() {
			for _, p := range pas {
				sink += d.ReadU64(p &^ 7)
			}
		}),
		"mem.write_ns": nsPerRef(len(pas), func() {
			for i, p := range pas {
				d.WriteU64(p&^7, uint64(i))
			}
		}),
	}
	_ = sink
	return m
}

// nsPerRef times fn over n references: one warm-up pass, then the
// median of five timed passes.
func nsPerRef(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	fn()
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ts)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
