package core

import (
	"testing"

	"pinsql/internal/anomaly"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

func TestConfigDefaultsApplied(t *testing.T) {
	got := (Config{}).withDefaults()
	def := DefaultConfig()
	if got.Buckets != def.Buckets || got.SmoothKs != def.SmoothKs ||
		got.Tau != def.Tau || got.TauC != def.TauC || got.Kc != def.Kc ||
		got.TukeyK != def.TukeyK {
		t.Errorf("defaults not applied: %+v", got)
	}
	// Explicit values survive.
	custom := (Config{Buckets: 3, Tau: 0.5}).withDefaults()
	if custom.Buckets != 3 || custom.Tau != 0.5 {
		t.Errorf("explicit values overridden: %+v", custom)
	}
	// Ablation switches default to off (full PinSQL).
	if def.NoEstimateSession || def.NoTrendLevel || def.NoCumulativeThreshold {
		t.Error("default config must be the full pipeline")
	}
	if !def.IncludeMetricTempNodes {
		t.Error("metric temp nodes should be on by default")
	}
}

// syntheticCase builds a tiny in-memory case without any simulation: one
// culprit template stepping up inside the window, one stable template whose
// queries are in the frame's observation columns only when stableLogged.
func syntheticCase(stableLogged bool) (*anomaly.Case, *window.Frame) {
	n := 240
	as, ae := 120, 180
	inst := make(timeseries.Series, n)
	culpritCount := make(timeseries.Series, n)
	stableCount := make(timeseries.Series, n)
	culpritRT := make(timeseries.Series, n)
	stableRT := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		inst[i] = 1
		stableCount[i] = 10
		stableRT[i] = 100
		if i >= as && i < ae {
			inst[i] = 12
			culpritCount[i] = 8
			culpritRT[i] = 8 * 1200
		}
	}
	f := &window.Frame{
		Seconds:       n,
		ActiveSession: inst,
		CPUUsage:      make(timeseries.Series, n),
		IOPSUsage:     make(timeseries.Series, n),
		RowLockWaits:  make(timeseries.Series, n),
		MDLWaits:      make(timeseries.Series, n),
		Templates: []window.Template{
			{Meta: window.Meta{Index: 0, ID: "CULPRIT"}, Count: culpritCount, SumRT: culpritRT, SumRows: culpritCount.Clone()},
			{Meta: window.Meta{Index: 1, ID: "STABLE"}, Count: stableCount, SumRT: stableRT, SumRows: stableCount.Clone()},
		},
		Off: []int32{0},
	}
	for i := as; i < ae; i++ {
		for k := 0; k < 8; k++ {
			f.Arrival = append(f.Arrival, int64(i*1000+k*120))
			f.Response = append(f.Response, 1200)
		}
	}
	f.Off = append(f.Off, int32(len(f.Arrival)))
	for i := as; stableLogged && i < ae; i++ {
		for k := 0; k < 10; k++ {
			f.Arrival = append(f.Arrival, int64(i*1000+k*100))
			f.Response = append(f.Response, 10)
		}
	}
	f.Off = append(f.Off, int32(len(f.Arrival)))
	f.Finalize()
	c := anomaly.NewCase(f, anomaly.Phenomenon{Rule: "active_session_anomaly", Start: as, End: ae})
	return c, f
}

func TestDiagnoseSyntheticCulprit(t *testing.T) {
	c, f := syntheticCase(true)
	d := DiagnoseFrame(c, f, DefaultConfig())
	if len(d.HSQLs) != 2 || d.HSQLs[0].ID != "CULPRIT" {
		t.Errorf("H ranking = %+v", d.HSQLs)
	}
	if len(d.RSQLs) == 0 || d.RSQLs[0].ID != "CULPRIT" {
		t.Errorf("R ranking = %+v", d.RSQLs)
	}
}

func TestDiagnoseWithoutMetricTempNodes(t *testing.T) {
	c, f := syntheticCase(true)
	cfg := DefaultConfig()
	cfg.IncludeMetricTempNodes = false
	d := DiagnoseFrame(c, f, cfg)
	if len(d.RSQLs) == 0 || d.RSQLs[0].ID != "CULPRIT" {
		t.Errorf("R ranking without temp nodes = %+v", d.RSQLs)
	}
}

func TestDiagnoseZeroQueryTemplates(t *testing.T) {
	// A template present in the frame but absent from the query log
	// must still get a (zero) session row and not crash anything.
	c, f := syntheticCase(false)
	d := DiagnoseFrame(c, f, DefaultConfig())
	if len(d.HSQLs) != 2 {
		t.Fatalf("H ranking lost a template: %+v", d.HSQLs)
	}
}

// TestDiagnoseActiveSessionOfAnotherLength: a frame whose ActiveSession is
// shorter or longer than its Seconds is diagnosed without a panic, with and
// without the session estimate and at several worker counts: no template's
// session correlates with a series of another length, so every trend,
// scale-trend and impact score is 0 — what the dropped length-mismatch
// errors have always meant — and both rankings still hold every template
// they would.
func TestDiagnoseActiveSessionOfAnotherLength(t *testing.T) {
	c, f := syntheticCase(true)
	for _, n := range []int{f.Seconds - 11, f.Seconds + 6} {
		g := *f
		g.ActiveSession = make(timeseries.Series, n)
		copy(g.ActiveSession, f.ActiveSession)
		gc := *c
		gc.Frame = &g
		for _, noEstimate := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				cfg := DefaultConfig()
				cfg.NoEstimateSession, cfg.Workers = noEstimate, workers
				d := DiagnoseFrame(&gc, &g, cfg)
				if len(d.HSQLs) != 2 || len(d.RSQLs) == 0 {
					t.Fatalf("n=%d noEstimate=%v w=%d: %d H-SQLs, %d R-SQLs", n, noEstimate, workers, len(d.HSQLs), len(d.RSQLs))
				}
				for _, h := range d.HSQLs {
					if h.Trend != 0 || h.ScaleTrend != 0 || h.Impact != 0 {
						t.Errorf("n=%d noEstimate=%v w=%d: %s scored %+v against a session of another length", n, noEstimate, workers, h.ID, h)
					}
				}
			}
		}
	}
}

func TestIDAccessors(t *testing.T) {
	c, f := syntheticCase(true)
	d := DiagnoseFrame(c, f, DefaultConfig())
	if len(d.HSQLIDs()) != len(d.HSQLs) || len(d.RSQLIDs()) != len(d.RSQLs) {
		t.Error("accessor lengths differ")
	}
	if d.HSQLIDs()[0] != d.HSQLs[0].ID {
		t.Error("HSQLIDs order differs")
	}
}

func TestTimingTotal(t *testing.T) {
	tm := Timing{EstimateSession: 1, RankHSQL: 2, ClusterFilter: 3, VerifyRank: 4}
	if tm.Total() != 10 {
		t.Errorf("total = %v", tm.Total())
	}
}
