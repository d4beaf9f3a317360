package main

import (
	"bytes"
	"math"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/workload"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"shadowtlb/internal/tlb.(*TLB).Lookup":           "tlb",
		"shadowtlb/internal/workload/radix.(*Radix).Run": "workload",
		"shadowtlb/internal/exp/runner.(*Pool).runCell":  "exp",
		"shadowtlb/internal/trace.(*Writer).Write":       "replay",
		"shadowtlb/internal/stats.Breakdown.Total":       "other",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "runtime",
		"main.genTrace":      "other",
		"sync.(*Mutex).Lock": "other",
		"shadowtlb/internal/cpu.(*CPU).Stream.func1":       "cpu",
		"shadowtlb/internal/core.(*MTLB).Translate[...]":   "core",
		"shadowtlb/internal/mem.(*DRAM).ReadU64":           "mem",
		"shadowtlb/internal/sim.(*System).Run":             "sim",
		"shadowtlb/internal/replay.(*Engine).runCols":      "replay",
		"shadowtlb/internal/kernel.(*Kernel).StartProcess": "kernel",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

// TestFlatByFunction decodes a real CPU profile: the time must land on
// the function that burned it.
func TestFlatByFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range flat {
		total += s
	}
	if total < 0.1 || flat["shadowtlb/perfbench.spin"] < total/2 {
		t.Fatalf("spin got %.3fs of %.3fs profiled: %v", flat["shadowtlb/perfbench.spin"], total, flat)
	}
}

//go:noinline
func spin(d time.Duration) {
	x := uint64(1) // a local, so the race detector does not instrument the loop
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	spinSink = x
}

// TestCaptureThinning feeds more references than the capture keeps and
// checks the sample is whole windows spaced by the final stride.
func TestCaptureThinning(t *testing.T) {
	c := &captureEnv{MemEnv: workload.NewMemEnv(), stride: 1}
	n := 5*captureMax + 123
	for i := 0; i < n; i++ {
		c.note(arch.VAddr(i), false)
	}
	if len(c.refs) > captureMax || len(c.refs) < captureMax/4 {
		t.Fatalf("kept %d refs, cap %d", len(c.refs), captureMax)
	}
	for i, r := range c.refs {
		w := i / captureWindow
		want := arch.VAddr(w*c.stride*captureWindow + i%captureWindow)
		if r.va != want {
			t.Fatalf("ref %d = %d, want %d (stride %d)", i, r.va, want, c.stride)
		}
	}
}

func TestGenTraceSeeded(t *testing.T) {
	a, err := genTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genTrace(1)
	c, _ := genTrace(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different traces")
	}
	if reflect.DeepEqual(a, c) || len(a) != len(c) {
		t.Fatal("seeds must change the addresses and nothing else")
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{3: 0, 19: 0, 20: 50, 81: 87, 100: 90, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestProbeScale: the slowest quarter of the samples is left out, and
// the rest's mean sets the scale.
func TestProbeScale(t *testing.T) {
	s := probeStats{samples: []float64{2 * probeRef, 2 * probeRef, 2 * probeRef, 9 * probeRef}}
	if got := s.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("scale = %v, want 0.5", got)
	}
	if got := (probeStats{}).scale(); got != 1 {
		t.Fatalf("scale without samples = %v, want 1", got)
	}
}

// TestProbedEnvSamples: the shim samples once per probeEvery references,
// counting batched ones, and leaves the references to the environment.
func TestProbedEnvSamples(t *testing.T) {
	p := newProbe()
	mem := workload.NewMemEnv()
	e := &probedEnv{Env: mem, p: p}
	va := mem.AllocRegion("r", 1<<16)
	for i := 0; i < probeEvery; i++ {
		e.Store(va, 8, uint64(i))
	}
	refs := make([]workload.Ref, probeEvery-1)
	for i := range refs {
		refs[i] = workload.Ref{VA: va, Size: 8}
	}
	e.Stream(refs)
	if got := len(p.stats().samples); got != 1 {
		t.Fatalf("%d samples after 2*probeEvery-1 references, want 1", got)
	}
	e.Load(va, 8)
	st := p.stats()
	if len(st.samples) != 2 || st.inWall <= 0 {
		t.Fatalf("%d samples, %v in the timed region; want 2 and some", len(st.samples), st.inWall)
	}
	if mem.Stores != probeEvery || mem.Loads != probeEvery {
		t.Fatalf("env saw %d stores, %d loads; want %d each", mem.Stores, mem.Loads, probeEvery)
	}
}

// TestProbeScan: the kernel the probe times computes what its Go
// definition does.
func TestProbeScan(t *testing.T) {
	for _, steps := range []int{0, 1, 64, 1000, probeSteps} {
		var a, b [64]uint64
		if got, want := probeScan(&a, steps), probeScanGo(&b, steps); got != want || a != b {
			t.Fatalf("%d steps: %d hits, want %d; tables equal: %v", steps, got, want, a == b)
		}
	}
}
