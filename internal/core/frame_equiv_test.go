package core

// Differential tests for the index-first refactor: DiagnoseFrame must be a
// drop-in replacement for the legacy map-keyed Diagnose — identical H-SQL
// and R-SQL rankings down to float bits on real generated workloads — and
// the decisions downstream (repair) must not be able to tell the paths
// apart. A final allocation budget pins the frame path's headline win.

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"pinsql/internal/cases"
	"pinsql/internal/repair"
	"pinsql/internal/workload"
)

// bothPaths generates one labeled case and diagnoses it on the legacy and
// the frame path with the same configuration.
func bothPaths(t *testing.T, idx int64, kind workload.AnomalyKind, cfg Config) (*cases.Labeled, *Diagnosis, *Diagnosis) {
	t.Helper()
	opt := cases.DefaultOptions()
	opt.FillerServices = 2
	opt.FillerSpecs = 5
	lab, err := cases.GenerateOne(opt, idx, kind)
	if err != nil {
		t.Fatal(err)
	}
	legacy := Diagnose(lab.Case, cases.QueriesOf(lab.Collector, lab.Case.Snapshot), cfg)
	framed := DiagnoseFrame(lab.Case, lab.Collector.Frame(), cfg)
	return lab, legacy, framed
}

// requireSameDiagnosis compares rankings bit for bit, ignoring the
// frame-only Score.Pos field and the Est/FrameEst representation split.
func requireSameDiagnosis(t *testing.T, legacy, framed *Diagnosis) {
	t.Helper()
	if len(legacy.HSQLs) != len(framed.HSQLs) {
		t.Fatalf("H-SQL count: legacy %d, frame %d", len(legacy.HSQLs), len(framed.HSQLs))
	}
	for i, l := range legacy.HSQLs {
		f := framed.HSQLs[i]
		if l.ID != f.ID ||
			math.Float64bits(l.Trend) != math.Float64bits(f.Trend) ||
			math.Float64bits(l.Scale) != math.Float64bits(f.Scale) ||
			math.Float64bits(l.ScaleTrend) != math.Float64bits(f.ScaleTrend) ||
			math.Float64bits(l.Impact) != math.Float64bits(f.Impact) {
			t.Fatalf("H-SQL %d: legacy %+v, frame %+v", i, l, f)
		}
	}
	if len(legacy.RSQLs) != len(framed.RSQLs) {
		t.Fatalf("R-SQL count: legacy %d, frame %d", len(legacy.RSQLs), len(framed.RSQLs))
	}
	for i, l := range legacy.RSQLs {
		f := framed.RSQLs[i]
		if l.ID != f.ID || l.Cluster != f.Cluster || l.Verified != f.Verified ||
			math.Float64bits(l.Score) != math.Float64bits(f.Score) {
			t.Fatalf("R-SQL %d: legacy %+v, frame %+v", i, l, f)
		}
	}
}

func TestDiagnoseFrameMatchesLegacyAllFamilies(t *testing.T) {
	kinds := []workload.AnomalyKind{
		workload.KindBusinessSpike, workload.KindPoorSQL,
		workload.KindLockStorm, workload.KindMDL,
	}
	for i, kind := range kinds {
		_, legacy, framed := bothPaths(t, int64(i), kind, DefaultConfig())
		requireSameDiagnosis(t, legacy, framed)
	}
}

func TestDiagnoseFrameMatchesLegacyUnderAblations(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"no_estimate_session", func(c *Config) { c.NoEstimateSession = true }},
		{"no_weighted_score", func(c *Config) { c.NoWeightedFinalScore = true }},
		{"no_direct_cause", func(c *Config) { c.NoDirectCauseRanking = true }},
		{"no_history", func(c *Config) { c.NoHistoryVerification = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			_, legacy, framed := bothPaths(t, 2, workload.KindLockStorm, cfg)
			requireSameDiagnosis(t, legacy, framed)
		})
	}
}

// TestRepairDecisionsIdenticalAcrossPaths closes the loop on the refactor's
// contract: repair acts only on the case and the ranked R-SQL IDs, so two
// diagnoses that agree must yield the same suggested actions, parameters
// and reasons on both the lock-storm and the poor-SQL family.
func TestRepairDecisionsIdenticalAcrossPaths(t *testing.T) {
	for i, kind := range []workload.AnomalyKind{workload.KindLockStorm, workload.KindPoorSQL} {
		lab, legacy, framed := bothPaths(t, int64(10+i), kind, DefaultConfig())
		requireSameDiagnosis(t, legacy, framed)
		mod := repair.New(repair.DefaultConfig(), repair.DefaultOptimizer())
		topOf := func(d *Diagnosis) []string {
			ids := d.RSQLIDs()
			if len(ids) > 3 {
				ids = ids[:3]
			}
			out := make([]string, len(ids))
			for j, id := range ids {
				out[j] = string(id)
			}
			return out
		}
		if !reflect.DeepEqual(topOf(legacy), topOf(framed)) {
			t.Fatalf("%s: top R-SQLs differ", kind)
		}
		top := legacy.RSQLIDs()
		if len(top) > 3 {
			top = top[:3]
		}
		suggLegacy := mod.Suggest(lab.Case, top)
		suggFrame := mod.Suggest(lab.Case, framed.RSQLIDs()[:len(top)])
		if !reflect.DeepEqual(suggLegacy, suggFrame) {
			t.Fatalf("%s: repair suggestions differ:\nlegacy: %+v\nframe:  %+v", kind, suggLegacy, suggFrame)
		}
	}
}

// TestDiagnoseFrameAllocBudget pins the frame path's allocation profile on
// a case wide enough (about 420 templates) for per-template costs to
// dominate: a warm, sequential diagnosis allocates its output — one session
// series per template — plus small change. Both budgets count what the code
// asks the allocator for, so neither moves with machine load, and a
// per-template temporary that creeps back in (the legacy path's ratio
// series was one) fails here instead of in a benchmark.
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
