package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/replay"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
	"shadowtlb/internal/workload/radix"
)

// workers is the thread budget of every workload: the sweep's pool
// width and the benchmark's GOMAXPROCS.
const workers = 2

// refs holds the recorded reference results, one file per workload (and
// per named trace-replay seed). -record rewrites them.
//
//go:embed ref
var refs embed.FS

const refDir = "perfbench/ref"

// outcome is what one run of a workload produced.
type outcome struct {
	instr  uint64 // simulated instructions, summed over the run's simulations
	sims   int    // simulations attempted
	failed int    // simulations that panicked or whose result differs from the reference
	err    error  // the first failure, for the report
}

// fail marks every simulation of the run as failed.
func (o *outcome) fail(err error) {
	if o.sims == 0 {
		o.sims = 1
	}
	o.failed = o.sims
	if o.err == nil {
		o.err = err
	}
}

// bench is one workload.
type bench interface {
	// prepare loads the reference result, or computes it with the
	// differential oracle, outside every timed region.
	prepare() error
	// setup does everything before the first simulated reference and
	// returns the run, which simulates and checks the result. tr is nil
	// in untraced runs; p, the probe the run samples, is nil in traced
	// runs and in set-ups timed alone.
	setup(tr *tracer, p *probe) (run func() outcome, err error)
	// programs returns the workload's programs for the functional pass
	// on workload.MemEnv.
	programs() ([]workload.Workload, error)
	// record computes the reference result and writes it under refDir.
	record() error
}

func newBench(name string, seed uint64) (bench, error) {
	base := sim.Default().WithTLB(64)
	switch name {
	case "radix-conv":
		return &radixBench{name: name, cfg: base}, nil
	case "radix-mtlb":
		return &radixBench{name: name, cfg: base.WithMTLB(core.DefaultMTLBConfig())}, nil
	case "sweep-small":
		return &sweepBench{}, nil
	case "trace-replay":
		return &replayBench{seed: seed, cfg: base.WithMTLB(core.DefaultMTLBConfig())}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have radix-conv, radix-mtlb, sweep-small, trace-replay)", name)
}

// radixBench runs radix at paper scale on one machine.
type radixBench struct {
	name string
	cfg  sim.Config
	ref  []byte
}

func (b *radixBench) prepare() (err error) {
	b.ref, err = refs.ReadFile("ref/" + b.name + ".json")
	return err
}

func (b *radixBench) setup(tr *tracer, p *probe) (func() outcome, error) {
	w := radix.New(radix.PaperConfig())
	sys := tr.newSystem(b.cfg)
	return func() outcome { return check(tr.run(sys, p.wrap(w)), b.ref) }, nil
}

// check compares a result with every reference.
func check(res sim.Result, refs ...[]byte) outcome {
	o := outcome{instr: res.Instructions, sims: 1}
	for _, ref := range refs {
		if err := sameResult(res, ref); err != nil {
			o.fail(err)
		}
	}
	return o
}

func (b *radixBench) programs() ([]workload.Workload, error) {
	return []workload.Workload{radix.New(radix.PaperConfig())}, nil
}

func (b *radixBench) record() error {
	res := sim.New(b.cfg).Run(radix.New(radix.PaperConfig()))
	slow := b.cfg
	slow.NoFastPath = true
	if oracle := sim.New(slow).Run(radix.New(radix.PaperConfig())); res != oracle {
		return fmt.Errorf("%s: fast engine %+v differs from the NoFastPath oracle %+v", b.name, res, oracle)
	}
	return writeResult(b.name+".json", res)
}

// replayBench compiles a seeded trace and replays it on one machine.
type replayBench struct {
	seed uint64
	cfg  sim.Config
	// refs are the results the replay must reproduce: the live
	// NoFastPath run of the same references, and the recorded result
	// when this seed has one.
	refs [][]byte
}

func (b *replayBench) refName() string { return fmt.Sprintf("trace-replay-seed%d.json", b.seed) }

// oracle runs the generated references live, one at a time, on the
// machine with the fast path off: the repository's differential oracle.
func (b *replayBench) oracle() (sim.Result, error) {
	recs, err := genTrace(b.seed)
	if err != nil {
		return sim.Result{}, err
	}
	slow := b.cfg
	slow.NoFastPath = true
	return sim.New(slow).Run(&trace.Replay{Records: recs}), nil
}

func (b *replayBench) prepare() error {
	res, err := b.oracle()
	if err != nil {
		return err
	}
	live, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.refs = [][]byte{live}
	if rec, err := refs.ReadFile("ref/" + b.refName()); err == nil {
		b.refs = append(b.refs, rec)
	}
	return nil
}

func (b *replayBench) setup(tr *tracer, p *probe) (func() outcome, error) {
	end := tr.span("gen")
	recs, err := genTrace(b.seed)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.span("replay.Compile")
	prog, err := replay.Compile(recs)
	end()
	if err != nil {
		return nil, err
	}
	sys := tr.newSystem(b.cfg)
	return func() outcome { return check(tr.run(sys, p.wrap(replay.NewEngine(prog))), b.refs...) }, nil
}

func (b *replayBench) programs() ([]workload.Workload, error) {
	recs, err := genTrace(b.seed)
	if err != nil {
		return nil, err
	}
	prog, err := replay.Compile(recs)
	if err != nil {
		return nil, err
	}
	return []workload.Workload{replay.NewEngine(prog)}, nil
}

func (b *replayBench) record() error {
	res, err := b.oracle()
	if err != nil {
		return err
	}
	recs, err := genTrace(b.seed)
	if err != nil {
		return err
	}
	prog, err := replay.Compile(recs)
	if err != nil {
		return err
	}
	if got := sim.New(b.cfg).Run(replay.NewEngine(prog)); got != res {
		return fmt.Errorf("trace-replay seed %d: compiled replay %+v differs from the live oracle %+v", b.seed, got, res)
	}
	return writeResult(b.refName(), res)
}

// sweepBench renders every registered experiment at small scale through
// the runner pool, as `mtlbexp -exp all -scale small` does.
type sweepBench struct {
	ref string
}

const sweepRef = "sweep-small.txt"

func (b *sweepBench) prepare() error {
	ref, err := refs.ReadFile("ref/" + sweepRef)
	b.ref = string(ref)
	return err
}

func (b *sweepBench) setup(tr *tracer, p *probe) (func() outcome, error) {
	descs := exp.Descriptors()
	cells := distinctCells(descs)
	pool := runner.New(workers)
	tr.attachPool(pool)
	p.attachPool(pool)
	return func() outcome {
		got := render(pool.RunExperiments(descs, exp.Small))
		obsv := pool.Observations()
		o := outcome{sims: len(obsv)}
		for _, c := range obsv {
			o.instr += c.Manifest.Result.Instructions
		}
		tr.collectPool(pool, obsv)
		if len(obsv) != len(cells) {
			o.fail(fmt.Errorf("%d simulations, want one per distinct declared cell (%d)", len(obsv), len(cells)))
		}
		if got != b.ref {
			o.fail(errors.New("rendered tables differ from " + refDir + "/" + sweepRef))
		}
		return o
	}, nil
}

// distinctCells lists the cells the experiments declare, one per key.
func distinctCells(descs []exp.Descriptor) []exp.Cell {
	seen := map[string]bool{}
	var out []exp.Cell
	for _, d := range descs {
		if d.Cells == nil {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if k := c.Key(); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// render prints experiment outputs exactly as `mtlbexp -exp all` does.
func render(outs []runner.Output) string {
	var b strings.Builder
	for _, out := range outs {
		fmt.Fprintf(&b, "==== %s ====\n", out.ID)
		for _, t := range out.Tables {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (b *sweepBench) programs() ([]workload.Workload, error) {
	return exp.Workloads(exp.Small), nil
}

// record renders the sweep and checks it against the repository's frozen
// goldens before writing it: the full small-scale golden must be a
// prefix, and each single-experiment golden must appear as its section.
func (b *sweepBench) record() error {
	got := render(runner.New(workers).RunExperiments(exp.Descriptors(), exp.Small))
	golden := filepath.Join("cmd", "mtlbexp", "testdata")
	all, err := os.ReadFile(filepath.Join(golden, "all_small.golden"))
	if err != nil {
		return err
	}
	if !strings.HasPrefix(got, string(all)) {
		return errors.New("sweep-small: output does not extend all_small.golden")
	}
	for id, file := range map[string]string{"fig3": "fig3.golden", "fig4": "fig4.golden", "smp": "smp_small.golden"} {
		g, err := os.ReadFile(filepath.Join(golden, file))
		if err != nil {
			return err
		}
		if !strings.Contains(got, "==== "+id+" ====\n"+string(g)) {
			return fmt.Errorf("sweep-small: section %s differs from %s", id, file)
		}
	}
	return os.WriteFile(filepath.Join(refDir, sweepRef), []byte(got), 0o644)
}

// sameResult compares a result with a recorded one field by field. Only
// fields present in the recording are compared, so a field added to
// sim.Result later does not invalidate the references.
func sameResult(got sim.Result, want []byte) error {
	var w, g map[string]any
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(gb, &g); err != nil {
		return err
	}
	for k, v := range w {
		if !reflect.DeepEqual(g[k], v) {
			return fmt.Errorf("result field %s = %v, reference %v", k, g[k], v)
		}
	}
	return nil
}

func writeResult(name string, res sim.Result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(refDir, name), append(b, '\n'), 0o644)
}

// newSeconds times sim.New over the machines of the sweep's distinct
// cells, the per-machine assembly cost the sweep pays 81 times.
func (b *sweepBench) newSeconds(tr *tracer) float64 {
	var d time.Duration
	for _, c := range distinctCells(exp.Descriptors()) {
		end := tr.span("sim.New")
		t0 := time.Now()
		if c.Cfg.SMP != nil {
			w, err := exp.MakeWorkload(c.Workload, c.Scale)
			if err != nil {
				panic(err)
			}
			sim.NewSMP(c.Cfg, w)
		} else {
			sim.New(c.Cfg)
		}
		d += time.Since(t0)
		end()
	}
	return d.Seconds()
}
