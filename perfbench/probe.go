package main

import (
	"sort"
	"sync"
	"time"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/workload"
)

// The hosts this benchmark runs on are shared, and other tenants' load
// changes how fast the same code runs by a third or more from one run to
// the next, in CPU time as well as wall time: the operating system
// leaves time the hypervisor steals out of CPU time, so what remains is
// contention for the core and its caches. So an untraced run also times a fixed probe kernel, which
// uses none of the simulator's code, at fixed points through every
// iteration, and reports the iteration's timings scaled to the speed the
// kernel has on a reference host. A timing T beside probe samples
// averaging P (see scale) is reported as T × probeRef / P: a slower
// simulator still reads slower by the same share, a busier host does
// not.
//
// The kernel is a linear tag search over a 64-entry fully associative
// table with replacement on a miss, like tlb.(*TLB).Lookup, the largest
// share of the simulator's host profile. Of the kernels tried (integer
// arithmetic, random updates of 256 KiB and 4 MiB tables, this search),
// its time tracked the simulator's own under contention most closely;
// README.md has the figures. On amd64 it runs in assembly
// (probe_amd64.s), since the Go version's time moves by a third with
// where the linker places its loop.

// probeRef is the kernel's typical time, in seconds, on the reference
// host, the 2-vCPU Intel Xeon KVM guest the benchmark was defined on.
// Normalised timings are in seconds of that host.
const probeRef = 0.0007

// probeSteps is the kernel's fixed amount of work.
const probeSteps = 20_000

// probeEvery is how many references a workload issues between probe
// samples, about 30 ms of simulation; probeBefore is how many samples an
// iteration takes before its set-up.
const (
	probeEvery  = 1 << 18
	probeBefore = 8
)

var probeSink uint64

// probeKernel runs the kernel once and returns its wall time.
func probeKernel() time.Duration {
	var tags [64]uint64
	t0 := time.Now()
	probeSink += probeScan(&tags, probeSteps)
	return time.Since(t0)
}

// probeScanGo is the kernel: steps lookups of pseudo-random tags, 128
// equally likely ones, in a 64-entry table searched linearly and filled
// in FIFO order on a miss, so about half hit. It returns the hits.
func probeScanGo(tags *[64]uint64, steps int) uint64 {
	x, hits, victim := uint64(0x9e3779b97f4a7c15), uint64(0), 0
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tag := x >> 57
		found := false
		for j := range tags {
			if tags[j] == tag {
				found = true
				break
			}
		}
		if found {
			hits++
		} else {
			tags[victim] = tag
			victim = (victim + 1) & 63
		}
	}
	return hits
}

// probe collects one iteration's kernel samples. Every method is a no-op
// on a nil probe, which is how traced runs call them. The sweep's pool
// workers sample concurrently.
type probe struct {
	mu sync.Mutex
	probeStats
}

// probeStats holds an iteration's samples.
type probeStats struct {
	samples []float64 // seconds
	// inWall sums the samples taken inside the timed region, which the
	// iteration's timings leave out. lanes goroutines sampled there
	// concurrently, so each lost inWall/lanes of wall time.
	inWall time.Duration
	lanes  int
}

func newProbe() *probe { return &probe{probeStats: probeStats{lanes: 1}} }

// sample times the kernel once; timed says whether inside the timed
// region.
func (p *probe) sample(timed bool) {
	if p == nil {
		return
	}
	d := probeKernel()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples = append(p.samples, d.Seconds())
	if timed {
		p.inWall += d
	}
}

func (p *probe) stats() probeStats {
	if p == nil {
		return probeStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.probeStats
	s.samples = append([]float64(nil), s.samples...)
	return s
}

// scale turns a timing made beside the samples into reference-host
// seconds. It uses the mean of the fastest three quarters of the
// samples: the benchmark's own other threads (the garbage collector,
// the other pool worker) and the scheduler can only add time to a
// sample, and the slowest quarter is where they do. Without samples (an
// iteration that panicked) it is 1.
func (s probeStats) scale() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	xs := append([]float64(nil), s.samples...)
	sort.Float64s(xs)
	xs = xs[:max(1, len(xs)*3/4)]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return probeRef * float64(len(xs)) / sum
}

// wrap returns w behind an environment that samples the probe every
// probeEvery references, forwarding batches as batches.
func (p *probe) wrap(w workload.Workload) workload.Workload {
	if p == nil {
		return w
	}
	return probedWorkload{w, p}
}

// attachPool samples the probe as each of the pool's cells completes,
// on the worker that ran it.
func (p *probe) attachPool(pool *runner.Pool) {
	if p == nil {
		return
	}
	p.lanes = workers
	pool.SetCellHook(func(runner.CellEvent) { p.sample(true) })
}

type probedWorkload struct {
	workload.Workload
	p *probe
}

func (w probedWorkload) Run(env workload.Env) { w.Workload.Run(&probedEnv{Env: env, p: w.p}) }

type probedEnv struct {
	workload.Env
	p    *probe
	refs int // since the last sample
}

func (e *probedEnv) count(n int) {
	if e.refs += n; e.refs >= probeEvery {
		e.refs -= probeEvery
		e.p.sample(true)
	}
}

func (e *probedEnv) Load(va arch.VAddr, size int) uint64 {
	e.count(1)
	return e.Env.Load(va, size)
}

func (e *probedEnv) Store(va arch.VAddr, size int, val uint64) {
	e.count(1)
	e.Env.Store(va, size, val)
}

func (e *probedEnv) Stream(refs []workload.Ref) {
	e.count(len(refs))
	workload.Deliver(e.Env, refs)
}

func (e *probedEnv) StreamCols(cols workload.RefCols) {
	e.count(cols.Len())
	workload.DeliverCols(e.Env, cols)
}
