package core

import (
	"runtime"
	"testing"

	"pinsql/internal/cases"
	"pinsql/internal/workload"
)

// TestDiagnoseFrameAllocBudget pins the frame path's allocation profile on
// two cases wide enough for per-template costs to dominate — about 420
// templates, and about 1220 of which all but the world's own two dozen run
// under one execution a second: a warm, sequential diagnosis allocates its
// output — each template's session as its nonzero seconds, an int32 and a
// float64 apiece — plus tables that grow with the templates or with the
// seconds, never with their product. Both budgets count what the code asks
// the allocator for, so neither moves with machine load, and a dense series
// per template (8 MB on the first case, 23 MB on the second) or a
// per-template temporary that creeps back in fails here instead of in a
// benchmark.
func TestDiagnoseFrameAllocBudget(t *testing.T) {
	for _, fillerServices := range []int{16, 48} {
		opt := cases.DefaultOptions()
		opt.FillerServices = fillerServices
		opt.FillerSpecs = 25
		lab, err := cases.GenerateOne(opt, 0, workload.KindLockStorm)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = 1 // sequential: no scheduling allocations in the count
		fr := lab.Case.Frame
		d := DiagnoseFrame(lab.Case, fr, cfg) // warm-up
		for _, cand := range d.Root.Ranked {
			if cand.Cluster >= d.Root.Selected {
				// Verification widened to every template clones each one's
				// series for its Tukey fences: a different, costlier regime.
				t.Fatal("fixture drifted: history verification was widened to every template")
			}
		}
		templates, nonzeros := fr.NumTemplates(), 0
		for _, s := range d.FrameEst.PerTemplate {
			nonzeros += len(s.Idx)
		}
		if dense := templates * fr.Seconds; nonzeros*5 > dense {
			t.Fatalf("fixture drifted: %d of %d session seconds are nonzero, want under a fifth", nonzeros, dense)
		}

		// Objects: two per chunk of eight templates for the sessions (the
		// estimator's fillChunk); the downsampled and standardized cluster
		// vector and a singleton cluster's two slices are per template;
		// everything else is per call.
		objects := 2*((templates+7)/8) + 4*templates
		if allocs := testing.AllocsPerRun(5, func() {
			DiagnoseFrame(lab.Case, fr, cfg)
		}); allocs > float64(objects) {
			t.Errorf("%d templates: warm DiagnoseFrame allocates %.0f objects/run, budget %d", templates, allocs, objects)
		}

		// Bytes: 12 per nonzero session second, 16 with the allocator's
		// size classes and the staging copy's growth; per template the
		// score, the R-SQL input and the cluster vector; per second the
		// bucket totals (80 B) and a dozen instance-side series.
		budget := uint64(16*nonzeros + 640*templates + 400*fr.Seconds + 64<<10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DiagnoseFrame(lab.Case, fr, cfg)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%d templates: warm DiagnoseFrame allocates %d bytes, budget %d (%d nonzero of %d session seconds)",
				templates, got, budget, nonzeros, templates*fr.Seconds)
		}
	}
}
