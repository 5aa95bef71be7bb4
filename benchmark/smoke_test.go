package main

import (
	"math"
	"testing"
)

// toySizes run every workload in about a second. Nothing below asserts a
// wall-clock quantity: a loaded machine changes the numbers, never the
// outputs or which metrics exist.
var toySizes = sizes{
	instances: 2, windows: 2, windowSec: 120,
	replayWindows: 3, logInstances: 2, pacedSpeed: 480, pacedShards: 2,
	wideTemplates: 98, wideSec: 480, wideAnomalySec: 120,
}

func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	opt := options{spec: spec, sz: toySizes, seed: 1, seconds: 0.5, tmp: t.TempDir(), out: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, opt, traced)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", w.name, traced)
			}
			if res.failed > res.timingFailed {
				t.Errorf("%s traced=%v: output checks failed: %q", w.name, traced, res.failures)
			}
			specs, got := spec.EndToEnd, res.e2e
			if traced {
				specs, got = spec.PerLayer, res.layer
			}
			if _, err := metricsOf(specs, got, false); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
		}
	}
}

// The reference computation scales every bounded time (hostspeed.go): a
// change to it would shift them all with no change to the pipeline.
func TestReferenceWorkUnchanged(t *testing.T) {
	refWork()
	if want := 8667.2552653710; math.Abs(refSink-want) > 1e-6*want {
		t.Errorf("refWork computed %.10f, want %.10f: the reference computation must not change", refSink, want)
	}
}
