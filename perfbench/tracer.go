package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/workload"
)

// tracer records spans around the benchmark's calls into each layer,
// attaches an observability session to every machine, and keeps what
// the latest traced iteration produced. Every method is a no-op on a nil
// tracer, which is how untraced runs call them.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex // spans and open: cell spans arrive from pool workers
	spans []span
	open  []int // stack of open spans on the benchmark's goroutine

	// The latest iteration's sessions, results and pool counters.
	regs    []*obs.Registry
	results []sim.Result
	pool    runner.Stats
}

// span is one timed call. Times are offsets from the tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index into spans, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Lane   int           `json:"lane"` // 0 the benchmark's goroutine, 1 pool workers
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span opens a span under the innermost open one and returns its closer.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.top(), Start: time.Since(t.epoch)})
	t.open = append(t.open, i)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[i].End = time.Since(t.epoch)
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// iteration clears the per-iteration state and opens the iteration span.
func (t *tracer) iteration() func() {
	if t != nil {
		t.regs, t.results, t.pool = nil, nil, runner.Stats{}
	}
	return t.span("iteration")
}

// newSystem assembles a machine, observed when tracing.
func (t *tracer) newSystem(cfg sim.Config) *sim.System {
	if t == nil {
		return sim.New(cfg)
	}
	end := t.span("sim.New")
	s := sim.New(cfg)
	end()
	o := obs.New(obs.Options{})
	s.Observe(o)
	t.regs = append(t.regs, o.Registry())
	return s
}

// run runs w on s; when tracing, behind the environment shim that
// times the VM calls.
func (t *tracer) run(s *sim.System, w workload.Workload) sim.Result {
	if t == nil {
		return s.Run(w)
	}
	res := s.Run(tracedWorkload{w, t})
	t.results = append(t.results, res)
	return res
}

// attachPool observes every cell the pool simulates and records one
// span per cell.
func (t *tracer) attachPool(p *runner.Pool) {
	if t == nil {
		return
	}
	p.EnableObs(obs.Options{})
	p.SetCellHook(func(ev runner.CellEvent) {
		t.mu.Lock()
		defer t.mu.Unlock()
		now := time.Since(t.epoch)
		t.spans = append(t.spans, span{
			Name: "cell " + ev.Name, Parent: t.top(), Lane: 1,
			Start: now - time.Duration(ev.WallNS), End: now,
		})
	})
}

// collectPool keeps the pool's sessions, results and counters.
func (t *tracer) collectPool(p *runner.Pool, obsv []runner.CellObservation) {
	if t == nil {
		return
	}
	for _, o := range obsv {
		t.regs = append(t.regs, o.Obs.Registry())
		t.results = append(t.results, o.Manifest.Result)
	}
	t.pool = p.Stats()
}

// total sums the durations of the spans whose name satisfies match.
func (t *tracer) total(match func(string) bool) (d time.Duration) {
	for _, s := range t.spans {
		if match(s.Name) {
			d += s.End - s.Start
		}
	}
	return d
}

func named(name string) func(string) bool { return func(s string) bool { return s == name } }

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedWorkload runs a workload behind tracedEnv.
type tracedWorkload struct {
	workload.Workload
	t *tracer
}

func (w tracedWorkload) Run(env workload.Env) { w.Workload.Run(&tracedEnv{env, w.t}) }

// tracedEnv times the VM calls a workload makes (Remap, Sbrk) and
// forwards batched references as batches, so tracing keeps the CPU's
// batched paths.
type tracedEnv struct {
	workload.Env
	t *tracer
}

func (e *tracedEnv) Remap(base arch.VAddr, size uint64) bool {
	defer e.t.span("env.remap")()
	return e.Env.Remap(base, size)
}

func (e *tracedEnv) Sbrk(n uint64) arch.VAddr {
	defer e.t.span("env.sbrk")()
	return e.Env.Sbrk(n)
}

func (e *tracedEnv) Stream(refs []workload.Ref)       { workload.Deliver(e.Env, refs) }
func (e *tracedEnv) StreamCols(cols workload.RefCols) { workload.DeliverCols(e.Env, cols) }
