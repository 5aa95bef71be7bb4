package core

// End-to-end Workers-equivalence: the full diagnosis of a generated
// anomaly case must be identical — H-SQL ranking, R-SQL ranking, cluster
// structure, and every estimated session series — whatever the worker
// count. This is the pipeline-level contract behind the Fig. 7
// sequential-vs-parallel curves: parallelism buys time, never answers.

import (
	"reflect"
	"testing"

	"pinsql/internal/cases"
	"pinsql/internal/workload"
)

func TestDiagnoseWorkersEquivalence(t *testing.T) {
	opt := cases.DefaultOptions()
	opt.FillerServices = 3
	opt.FillerSpecs = 6
	for _, kind := range []workload.AnomalyKind{workload.KindBusinessSpike, workload.KindLockStorm} {
		lab, err := cases.GenerateOne(opt, 8, kind)
		if err != nil {
			t.Fatal(err)
		}
		fr := lab.Case.Frame

		cfg := DefaultConfig()
		cfg.Workers = 1
		seq := DiagnoseFrame(lab.Case, fr, cfg)

		for _, w := range []int{2, 4, 0} { // 0 = GOMAXPROCS
			cfg.Workers = w
			par := DiagnoseFrame(lab.Case, fr, cfg)
			if !reflect.DeepEqual(seq.HSQLs, par.HSQLs) {
				t.Errorf("%v workers=%d: H-SQL ranking diverged", kind, w)
			}
			if !reflect.DeepEqual(seq.RSQLs, par.RSQLs) {
				t.Errorf("%v workers=%d: R-SQL ranking diverged", kind, w)
			}
			if !reflect.DeepEqual(seq.Root.Clusters, par.Root.Clusters) {
				t.Errorf("%v workers=%d: cluster structure diverged", kind, w)
			}
			if !reflect.DeepEqual(estimateBits(seq.FrameEst), estimateBits(par.FrameEst)) {
				t.Errorf("%v workers=%d: estimated session series, total or bucket selection diverged", kind, w)
			}
		}
	}
}
