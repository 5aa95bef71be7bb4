package core

import (
	"runtime"
	"testing"

	"pinsql/internal/cases"
	"pinsql/internal/workload"
)

// TestDiagnoseFrameAllocBudget pins the frame path's allocation profile on
// a case wide enough (about 420 templates) for per-template costs to
// dominate: a warm, sequential diagnosis allocates its output — one session
// series per template — plus small change. Both budgets count what the code
// asks the allocator for, so neither moves with machine load, and a
// per-template temporary that creeps back in (a session-share series per
// template was one) fails here instead of in a benchmark.
func TestDiagnoseFrameAllocBudget(t *testing.T) {
	opt := cases.DefaultOptions()
	opt.FillerServices = 16
	opt.FillerSpecs = 25
	lab, err := cases.GenerateOne(opt, 0, workload.KindLockStorm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1 // sequential: no scheduling allocations in the count
	fr := lab.Collector.Frame()
	d := DiagnoseFrame(lab.Case, fr, cfg) // warm-up
	for _, cand := range d.Root.Ranked {
		if cand.Cluster >= d.Root.Selected {
			// Verification widened to every template clones each one's
			// series for its Tukey fences: a different, costlier regime.
			t.Fatal("fixture drifted: history verification was widened to every template")
		}
	}

	// Objects: the session series, the downsampled and standardized
	// cluster vectors and a singleton cluster's two slices are per
	// template; everything else is per call.
	objects := 6 * fr.NumTemplates()
	if allocs := testing.AllocsPerRun(5, func() {
		DiagnoseFrame(lab.Case, fr, cfg)
	}); allocs > float64(objects) {
		t.Errorf("warm DiagnoseFrame allocates %.0f objects/run, budget %d", allocs, objects)
	}

	// Bytes: the output series (T·seconds·8, rounded up to a size class by
	// the allocator) plus the per-call tables.
	output := fr.NumTemplates() * fr.Seconds * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DiagnoseFrame(lab.Case, fr, cfg)
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(output)*5/4; got > budget {
		t.Errorf("warm DiagnoseFrame allocates %d bytes, budget %d (1.25 × %d of output series)", got, budget, output)
	}
}
