package pinsql

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VIII). Each benchmark runs the same harness as cmd/pinsql-bench and
// reports domain metrics (accuracy, gains, declines) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every experiment.
//
// Corpus sizes are reduced relative to cmd/pinsql-bench defaults to keep a
// full -bench=. pass in the minutes range; use the command for the
// full-size corpora.

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pinsql/internal/bench"
	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/workload"
)

// BenchmarkTableI_Overall regenerates Table I: Hits@k / MRR / diagnosis
// time of PinSQL versus the Top-SQL baselines on R-SQL and H-SQL
// identification.
func BenchmarkTableI_Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev, err := bench.Evaluate(bench.SmallCorpus(1, 12), bench.Fig6Variants()[:1])
		if err != nil {
			b.Fatal(err)
		}
		res := ev.TableI()
		for _, row := range res.Rows {
			if row.Method == "PinSQL" {
				b.ReportMetric(100*row.R.H1, "R-H@1-%")
				b.ReportMetric(100*row.H.H1, "H-H@1-%")
				b.ReportMetric(row.TimeMs, "diagnose-ms")
			}
			if row.Method == "Top-All" {
				b.ReportMetric(100*row.R.H1, "TopAll-R-H@1-%")
			}
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFig6_Ablation regenerates Fig. 6: every pipeline component
// removed in turn.
func BenchmarkFig6_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev, err := bench.Evaluate(bench.SmallCorpus(2, 8), bench.Fig6Variants())
		if err != nil {
			b.Fatal(err)
		}
		res := ev.Fig6()
		b.ReportMetric(100*res.Rows[0].R.H1, "full-R-H@1-%")
		for _, row := range res.Rows {
			if row.Variant == "w/o Estimate Session" {
				b.ReportMetric(100*row.H.H1, "noEst-H-H@1-%")
			}
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFig7_Scalability regenerates Fig. 7: diagnosis computing time
// versus template count and anomaly-period length with polynomial fits.
func BenchmarkFig7_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(3, []int{100, 300, 600}, []int{300, 900, 1800}, 0)
		if err != nil {
			b.Fatal(err)
		}
		last := res.ByPeriod[len(res.ByPeriod)-1]
		b.ReportMetric(last.TimeSec, "diagnose-s-at-max-period")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkFig8_RepairCase regenerates Fig. 8: the scripted manual-throttle
// versus PinSQL-repair timeline.
func BenchmarkFig8_RepairCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8(11)
		if err != nil {
			b.Fatal(err)
		}
		if slices.Contains(res.TrueRSQLs, res.PinpointedRSQL) {
			b.ReportMetric(1, "pinpointed-correct")
		} else {
			b.ReportMetric(0, "pinpointed-correct")
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkTableII_OptimizationGain regenerates Table II: metric gains of
// optimizing R-SQLs versus slow SQLs.
func BenchmarkTableII_OptimizationGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableII(13, 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].TresGain, "rsql-tres-gain-%")
		b.ReportMetric(res.Rows[1].TresGain, "slow-tres-gain-%")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkTableIII_SessionEstimate regenerates Table III: estimation
// quality of the three active-session estimators.
func BenchmarkTableIII_SessionEstimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableIII(17, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Corr, "byRT-corr")
		b.ReportMetric(res.Rows[2].Corr, "buckets-corr")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkTableIV_PfsOverhead regenerates Table IV: QPS decline under
// Performance Schema configurations.
func BenchmarkTableIV_PfsOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableIV(bench.StressOptions{DurationSec: 6, Seed: 19})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cells[dbsim.PerfSchemaOn][bench.ReadOnly].Decline, "pfs-ro-decline-%")
		b.ReportMetric(res.Cells[dbsim.PerfSchemaConIns][bench.ReadOnly].Decline, "full-ro-decline-%")
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// parallelCase lazily generates one large diagnosis case (~4000 templates,
// the upper region of the paper's Fig. 7 sweep) shared by every
// BenchmarkDiagnoseParallel worker-count variant.
var parallelCase struct {
	once sync.Once
	lab  *cases.Labeled
	err  error
}

func loadParallelCase() (*cases.Labeled, error) {
	parallelCase.once.Do(func() {
		opt := cases.DefaultOptions()
		opt.Seed = 5
		opt.TraceSec = 2400
		opt.AnomalyStartSec = 1500
		opt.AnomalyMinDurSec = 300
		opt.AnomalyMaxDurSec = 300
		opt.HistoryDays = []int{1}
		opt.FillerServices = (4000 - 23) / 25
		opt.FillerSpecs = 25
		parallelCase.lab, parallelCase.err = cases.GenerateOne(opt, 0, workload.KindBusinessSpike)
	})
	return parallelCase.lab, parallelCase.err
}

// BenchmarkDiagnoseParallel measures the parallel diagnosis pipeline on a
// ~4000-template case across worker counts — the speedup axis the Fig. 7
// scalability experiment sweeps. Every variant must produce the identical
// ranked output as Workers=1 (checked on the first iteration); on a
// multi-core box Workers=4 is expected to cut the Workers=1 wall-clock by
// ≥2× (the pair-scan stage is embarrassingly parallel).
func BenchmarkDiagnoseParallel(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	var baseline *core.Diagnosis
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			lab, err := loadParallelCase()
			if err != nil {
				b.Fatal(err)
			}
			fr := lab.Case.Frame
			cfg := core.DefaultConfig()
			cfg.Workers = w
			b.ReportMetric(float64(len(fr.Templates)), "templates")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := core.DiagnoseFrame(lab.Case, fr, cfg)
				if i == 0 {
					if w == 1 && baseline == nil {
						baseline = d
					} else if baseline != nil {
						if !reflect.DeepEqual(baseline.HSQLIDs(), d.HSQLIDs()) ||
							!reflect.DeepEqual(baseline.RSQLIDs(), d.RSQLIDs()) {
							b.Fatalf("workers=%d ranked output diverged from workers=1", w)
						}
					}
				}
			}
		})
	}
}

// BenchmarkAblation_SmoothFactor sweeps the sigmoid smooth factor ks — the
// DESIGN.md sensitivity study beyond the paper's ablations.
func BenchmarkAblation_SmoothFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunParamSweep(bench.SmallCorpus(23, 4), "ks", []float64{5, 30, 300})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkAblation_ClusterTau sweeps the clustering threshold τ.
func BenchmarkAblation_ClusterTau(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunParamSweep(bench.SmallCorpus(29, 4), "tau", []float64{0.6, 0.8, 0.95})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkAblation_BucketK sweeps the session-estimation bucket count K.
func BenchmarkAblation_BucketK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunParamSweep(bench.SmallCorpus(31, 4), "buckets", []float64{1, 10, 40})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}
