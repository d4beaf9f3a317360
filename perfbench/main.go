// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's public entry points for a fixed host
// time, checks every simulated result against a recorded reference, and
// prints its metrics by name with their units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 4.91, "unit": "s"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer ones. See README.md.
//
//	perfbench -workload radix-conv -seed 1 -seconds 20 -trace 0
//	perfbench -record 1 7   # rewrite ref/, recording trace-replay seeds 1 and 7
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minIters is the fewest iterations a run makes, so every timing is a
// median of at least three.
const minIters = 3

// spansDir is where traced runs write their spans, inside the build
// directory run.sh uses.
const spansDir = ".bench_build/spans"

// setupSamples is the fewest set-ups an untraced run times. Runs with
// fewer iterations set up again, without running, to make up the
// count: set-up is short next to the run, so its median needs more
// samples than the iterations give.
const setupSamples = 100

// probeBeforeSetup is how many probe samples scale each extra set-up.
const probeBeforeSetup = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "radix-conv, radix-mtlb, sweep-small or trace-replay")
		seed    = fs.Uint64("seed", 1, "workload seed (drives trace-replay; the paper workloads use their calibrated inputs)")
		seconds = fs.Float64("seconds", 20, "host seconds to measure for")
		traced  = fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
		record  = fs.Bool("record", false, "rewrite the reference results under "+refDir+" and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))

	if *record {
		return recordAll(fs.Args(), stderr)
	}
	b, err := newBench(*name, *seed)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: %v\n", err)
		return 2
	}
	if err := b.prepare(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var (
		its     []iter
		metrics map[string]float64
	)
	if *traced == 1 {
		tr := newTracer()
		its, metrics, err = tracedRun(b, budget, tr, stdout)
		if err == nil {
			err = tr.write(fmt.Sprintf("%s/%s-seed%d.json", spansDir, *name, *seed))
		}
	} else {
		its = measure(b, nil, budget, time.Now(), minIters)
		var extra []float64
		if _, failed := tally(its); failed == 0 {
			extra = extraSetups(b, setupSamples-len(its))
		}
		metrics = endToEnd(its, extra, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	attempted, failed := tally(its)
	for _, it := range its {
		if it.err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, it.err)
		}
	}
	fmt.Fprintf(stdout, "%-16s %d of %d simulations failed (failed_frac %.4g)\n", "check", failed, attempted, ratio(float64(failed), float64(attempted)))
	if err := report(stdout, failed == 0, attempted, failed, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// tally counts the simulations attempted and failed.
func tally(its []iter) (attempted, failed int) {
	for _, it := range its {
		attempted += it.sims
		failed += it.failed
	}
	return attempted, failed
}

// iter is one iteration of a run: set-up, run and check.
type iter struct {
	outcome
	setup, wall time.Duration // host wall time of the set-up, and from start to checked result
	cpu         time.Duration // process CPU time of the whole iteration
	rssMB       float64       // peak resident memory during the iteration
	probe       probeStats    // the probe samples taken in and around the iteration (untraced runs)
}

// iterate sets up, runs and checks the workload once, timing each phase.
// A panic fails the iteration's simulations instead of the benchmark.
// Untraced runs (tr nil) sample the probe before the set-up and during
// the run, and leave the samples' time out of the iteration's.
func iterate(b bench, tr *tracer) (it iter) {
	defer func() {
		if r := recover(); r != nil {
			it.fail(fmt.Errorf("panic: %v\n%s", r, debug.Stack()))
		}
	}()
	// Start every iteration from a collected heap, outside the timed
	// region, so garbage the previous iteration left does not land in
	// this one's timings.
	runtime.GC()
	resetPeakRSS()
	defer tr.iteration()()
	var p *probe
	if tr == nil {
		p = newProbe()
		for i := 0; i < probeBefore; i++ {
			p.sample(false)
		}
	}
	t0, c0 := time.Now(), cpuTime()
	end := tr.span("setup")
	run, err := b.setup(tr, p)
	end()
	if err != nil {
		it.fail(err)
		return it
	}
	t1 := time.Now()
	end = tr.span("run")
	it.outcome = run()
	end()
	it.setup, it.wall = t1.Sub(t0), time.Since(t0)
	it.cpu = cpuTime() - c0
	it.rssMB = peakRSSMB()
	it.probe = p.stats()
	if p != nil {
		// The kernel is pure computation: its CPU time is its wall time.
		it.wall -= it.probe.inWall / time.Duration(it.probe.lanes)
		it.cpu -= it.probe.inWall
	}
	return it
}

// measure iterates the workload until the budget, counted from start,
// is spent: it starts another iteration only while one more median
// iteration still fits, and always makes at least min.
func measure(b bench, tr *tracer, budget time.Duration, start time.Time, min int) []iter {
	var out []iter
	for {
		out = append(out, iterate(b, tr))
		if len(out) >= min && time.Since(start)+medianWall(out) > budget {
			return out
		}
	}
}

func medianWall(its []iter) time.Duration {
	var xs []float64
	for _, it := range its {
		xs = append(xs, float64(it.wall))
	}
	return time.Duration(median(xs))
}

// extraSetups times n set-ups that are not followed by a run, each
// scaled to the reference host by probe samples taken before it. Call
// it only after iterations that all passed, so a set-up cannot panic
// here.
func extraSetups(b bench, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		p := newProbe()
		for j := 0; j < probeBeforeSetup; j++ {
			p.sample(false)
		}
		t0 := time.Now()
		if _, err := b.setup(nil, nil); err != nil {
			break
		}
		out = append(out, time.Since(t0).Seconds()*p.stats().scale())
	}
	return out
}

// endToEnd reduces an untraced run's iterations, and any extra set-ups,
// to the end-to-end metrics (medians of reference-host timings) and
// prints each timing's distribution, the measured ones too.
func endToEnd(its []iter, setup []float64, out io.Writer) map[string]float64 {
	var wall, ips, rss, rawWall, rawCPU, slowdown []float64
	for _, it := range its {
		k := it.probe.scale()
		rss = append(rss, it.rssMB)
		setup = append(setup, it.setup.Seconds()*k)
		wall = append(wall, it.wall.Seconds()*k)
		ips = append(ips, ratio(float64(it.instr), (it.wall-it.setup).Seconds()*k))
		rawWall = append(rawWall, it.wall.Seconds())
		rawCPU = append(rawCPU, it.cpu.Seconds())
		slowdown = append(slowdown, 1/k)
	}
	fmt.Fprintln(out, summary("setup_s", "s", setup))
	fmt.Fprintln(out, summary("wall_s", "s", wall))
	fmt.Fprintln(out, summary("sim_instr_per_s", "1/s", ips))
	fmt.Fprintln(out, summary("peak_rss_mb", "MB", rss))
	fmt.Fprintln(out, summary("host_slowdown", "ratio", slowdown))
	fmt.Fprintln(out, summary("measured wall_s", "s", rawWall))
	fmt.Fprintln(out, summary("measured cpu_s", "s", rawCPU))
	return map[string]float64{
		"setup_s":         median(setup),
		"wall_s":          median(wall),
		"sim_instr_per_s": median(ips),
		"peak_rss_mb":     median(rss),
	}
}

// cpuTime is the process's CPU time so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current resident size, so each iteration's peak reads on its own. The
// peak of a whole run is the largest of many iterations' garbage
// collector overshoots and grows with the iteration count; the median
// per-iteration peak does not. Where the kernel refuses, VmHWM stays the
// process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

// peakRSSMB reads the peak resident memory since the last reset, falling
// back to getrusage's lifetime peak where /proc is unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracedRun makes the traced run: a functional pass and stream capture,
// one untraced iteration as the overhead baseline, traced iterations
// under a CPU profile for the rest of the budget, then the standalone
// layer timings. It returns the per-layer metrics.
func tracedRun(b bench, budget time.Duration, tr *tracer, out io.Writer) ([]iter, map[string]float64, error) {
	m := map[string]float64{}
	progs, err := b.programs()
	if err != nil {
		return nil, nil, err
	}
	end := tr.span("functional")
	m["workload.ns_per_ref"] = functionalNsPerRef(progs)
	end()
	if progs, err = b.programs(); err != nil {
		return nil, nil, err
	}
	stream := captureRefs(progs)

	start := time.Now()
	base := iterate(b, nil)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	traced := measure(b, tr, budget, start, 1)
	pprof.StopCPUProfile()
	flat, err := layerSeconds(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(traced))

	end = tr.span("layers")
	for k, v := range layerTimings(stream) {
		m[k] = v
	}
	sweep, isSweep := b.(*sweepBench)
	if isSweep {
		m["sim.new_s"] = sweep.newSeconds(tr)
	}
	end()

	// Host self time by layer, per iteration.
	total := 0.0
	for _, l := range layers {
		m["host_s."+l] = flat[l] / n
		total += flat[l]
	}
	m["host.profile_s"] = total / n

	// Counters the layers publish, summed over the latest iteration's
	// machines; rates are recomputed from the sums.
	c := map[string]float64{}
	for _, r := range tr.regs {
		var avg, fills float64
		for _, d := range r.Dump() {
			c[d.Name] += d.Value
			switch d.Name {
			case "mmc.avg_fill_cycles":
				avg = d.Value
			case "mmc.fills":
				fills = d.Value
			}
		}
		c["mmc.fill_cycles_sum"] += avg * fills
	}
	for _, k := range []string{
		"cpu.loads", "cpu.stores", "cpu.instructions",
		"tlb.hits", "tlb.misses", "cache.hits", "cache.misses", "cache.writebacks",
		"mmc.fills", "mmc.writebacks", "mtlb.hits", "mtlb.misses", "mtlb.fills",
		"vm.tlb_misses", "vm.page_faults", "vm.pages_remapped",
	} {
		m[k] = c[k]
	}
	m["tlb.hit_rate"] = ratio(c["tlb.hits"], c["tlb.hits"]+c["tlb.misses"])
	m["cache.hit_rate"] = ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"])
	m["mtlb.hit_rate"] = ratio(c["mtlb.hits"], c["mtlb.hits"]+c["mtlb.misses"])
	m["mmc.avg_fill_cycles"] = ratio(c["mmc.fill_cycles_sum"], c["mmc.fills"])

	// Simulated outcome, for information: a speed or simplicity change
	// must leave these bit-identical.
	var cycles, tlbCycles, mtlbRate, mtlbN float64
	for _, r := range tr.results {
		cycles += float64(r.TotalCycles())
		tlbCycles += float64(r.Breakdown.TLBMiss)
		if r.HasMTLB {
			mtlbRate += r.MTLBHitRate
			mtlbN++
		}
	}
	m["model.cycles"] = cycles
	m["model.tlb_frac"] = ratio(tlbCycles, cycles)
	m["model.mtlb_hit_rate"] = ratio(mtlbRate, mtlbN)

	// Span timings, per iteration.
	perIter := func(match func(string) bool) float64 { return tr.total(match).Seconds() / n }
	if !isSweep {
		m["sim.new_s"] = perIter(named("sim.New"))
	}
	m["replay.compile_s"] = perIter(named("replay.Compile"))
	m["env.remap_s"] = perIter(named("env.remap"))
	m["env.sbrk_s"] = perIter(named("env.sbrk"))

	// The runner pool (sweep-small only).
	var cellMS []float64
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "cell ") {
			cellMS = append(cellMS, float64(s.End-s.Start)/1e6)
		}
	}
	m["exp.sims"] = float64(tr.pool.Simulated)
	m["exp.cells"] = float64(tr.pool.Requested)
	m["exp.memo_ratio"] = ratio(float64(tr.pool.Requested-tr.pool.Simulated), float64(tr.pool.Requested))
	m["exp.cell_ms_p50"], m["exp.cell_ms_tail"] = 0, 0
	if len(cellMS) > 0 {
		m["exp.cell_ms_p50"] = median(cellMS)
		m["exp.cell_ms_tail"] = quantile(cellMS, float64(tailPercentile(len(cellMS)))/100)
		fmt.Fprintln(out, summary("exp.cell_ms", "ms", cellMS))
	}
	m["exp.busy_frac"] = 0
	if isSweep {
		cells := tr.total(func(s string) bool { return strings.HasPrefix(s, "cell ") })
		m["exp.busy_frac"] = ratio(cells.Seconds(), tr.total(named("run")).Seconds()*workers)
	}

	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	m["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n

	var walls []float64
	for _, it := range traced {
		walls = append(walls, it.wall.Seconds())
	}
	m["trace_overhead"] = median(walls)/base.wall.Seconds() - 1
	fmt.Fprintln(out, summary("traced wall_s", "s", walls))
	fmt.Fprintf(out, "%-16s %.6g s (untraced baseline, n=1)\n", "wall_s", base.wall.Seconds())
	return append([]iter{base}, traced...), m, nil
}

// units names every metric's unit; report refuses a metric missing here.
var units = map[string]string{
	"setup_s": "s", "wall_s": "s", "sim_instr_per_s": "1/s", "peak_rss_mb": "MB",

	"workload.ns_per_ref": "ns", "host.profile_s": "s",
	"cpu.loads": "count", "cpu.stores": "count", "cpu.instructions": "count",
	"tlb.lookup_ns": "ns", "tlb.hits": "count", "tlb.misses": "count", "tlb.hit_rate": "ratio",
	"cache.access_ns": "ns", "cache.hits": "count", "cache.misses": "count",
	"cache.writebacks": "count", "cache.hit_rate": "ratio",
	"mmc.fills": "count", "mmc.writebacks": "count", "mmc.avg_fill_cycles": "cycles",
	"mtlb.hits": "count", "mtlb.misses": "count", "mtlb.fills": "count", "mtlb.hit_rate": "ratio",
	"mem.read_ns": "ns", "mem.write_ns": "ns",
	"vm.tlb_misses": "count", "vm.page_faults": "count", "vm.pages_remapped": "count",
	"env.remap_s": "s", "env.sbrk_s": "s", "sim.new_s": "s", "replay.compile_s": "s",
	"exp.sims": "count", "exp.cells": "count", "exp.memo_ratio": "ratio",
	"exp.cell_ms_p50": "ms", "exp.cell_ms_tail": "ms", "exp.busy_frac": "ratio",
	"runtime.alloc_mb": "MB", "runtime.gc_cycles": "count",
	"model.cycles": "cycles", "model.tlb_frac": "ratio", "model.mtlb_hit_rate": "ratio",
	"trace_overhead": "ratio",
}

func init() {
	for _, l := range layers {
		units["host_s."+l] = "s"
	}
}

// report prints every metric on its own line, then the result object as
// the last line.
func report(out io.Writer, correct bool, attempted, failed int, metrics map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := map[string]value{}
	for _, k := range names {
		u, ok := units[k]
		if !ok {
			return fmt.Errorf("metric %s has no unit", k)
		}
		v := metrics[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
		vals[k] = value{v, u}
		fmt.Fprintf(out, "%-24s %.6g %s\n", k, v, u)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// recordAll rewrites the reference results from the current program,
// checking each against the repository's oracles first. Arguments are
// the trace-replay seeds to record.
func recordAll(seeds []string, stderr io.Writer) int {
	var benches []bench
	for _, name := range []string{"radix-conv", "radix-mtlb", "sweep-small"} {
		b, _ := newBench(name, 0)
		benches = append(benches, b)
	}
	for _, s := range seeds {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: bad seed %q\n", s)
			return 2
		}
		b, _ := newBench("trace-replay", seed)
		benches = append(benches, b)
	}
	for _, b := range benches {
		if err := b.record(); err != nil {
			fmt.Fprintf(stderr, "perfbench: record: %v\n", err)
			return 1
		}
	}
	return 0
}
