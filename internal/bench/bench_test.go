package bench

import (
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"pinsql/internal/dbsim"
)

// smallEval is the one Evaluate pass over SmallCorpus(5, 8) that
// TestRunTableISmall, TestRunFig6Small and TestEvaluationTables all read.
var smallEval struct {
	once sync.Once
	ev   *Evaluation
	err  error
}

func smallEvaluation(t *testing.T) *Evaluation {
	t.Helper()
	if testing.Short() {
		t.Skip("corpus generation is slow")
	}
	smallEval.once.Do(func() {
		smallEval.ev, smallEval.err = Evaluate(SmallCorpus(5, 8), Fig6Variants())
	})
	if smallEval.err != nil {
		t.Fatal(smallEval.err)
	}
	return smallEval.ev
}

func TestRunTableISmall(t *testing.T) {
	res := smallEvaluation(t).TableI()
	if res.Cases != 8 {
		t.Fatalf("cases = %d", res.Cases)
	}
	byName := map[string]TableIRow{}
	for _, r := range res.Rows {
		byName[r.Method] = r
	}
	pin, topAll := byName["PinSQL"], byName["Top-All"]
	// The headline result: PinSQL beats the best baseline on R-SQL H@1
	// by a wide margin, and on H-SQL H@1.
	if pin.R.H1 <= topAll.R.H1 {
		t.Errorf("PinSQL R-H@1 %.2f ≤ Top-All %.2f\n%s", pin.R.H1, topAll.R.H1, res.Format())
	}
	if pin.R.H1 < 0.6 {
		t.Errorf("PinSQL R-H@1 = %.2f, want ≥ 0.6\n%s", pin.R.H1, res.Format())
	}
	if pin.H.H1 < topAll.H.H1 {
		t.Errorf("PinSQL H-H@1 %.2f < Top-All %.2f\n%s", pin.H.H1, topAll.H.H1, res.Format())
	}
	// Baselines are effectively instant; PinSQL takes real time but far
	// below the anomaly duration.
	if pin.TimeMs <= byName["Top-RT"].TimeMs {
		t.Errorf("PinSQL time %.2fms ≤ Top-RT %.2fms", pin.TimeMs, byName["Top-RT"].TimeMs)
	}
	if pin.TimeMs > 60_000 {
		t.Errorf("PinSQL time %.2fms exceeds a minute", pin.TimeMs)
	}
	if !strings.Contains(res.Format(), "PinSQL") {
		t.Error("Format missing PinSQL row")
	}
}

func TestRunFig6Small(t *testing.T) {
	res := smallEvaluation(t).Fig6()
	if len(res.Rows) != 9 {
		t.Fatalf("variants = %d, want 9", len(res.Rows))
	}
	full := res.Rows[0]
	if full.Variant != "PinSQL" {
		t.Fatalf("first variant = %s", full.Variant)
	}
	// Removing the session estimation must hurt H-SQL identification
	// (the paper's single largest ablation: −31.5 % H@1).
	for _, r := range res.Rows {
		if r.Variant == "w/o Estimate Session" && r.H.H1 > full.H.H1 {
			t.Errorf("w/o Estimate Session H-H@1 %.2f > full %.2f\n%s", r.H.H1, full.H.H1, res.Format())
		}
	}
	if !strings.Contains(res.Format(), "w/o Cumulative Threshold") {
		t.Error("Format missing ablation rows")
	}
}

// TestEvaluationTables renders Table I, Fig. 6 and the scenario table from
// one Evaluate pass, timing fields zeroed, and compares them byte for byte
// with testdata/tables.golden, rendered by the three harnesses that each
// streamed the corpus themselves.
func TestEvaluationTables(t *testing.T) {
	ev := smallEvaluation(t)
	t1, f6, sc := ev.TableI(), ev.Fig6(), ev.Scenario()
	for i := range t1.Rows {
		t1.Rows[i].TimeMs = 0
	}
	t1.StageMs.Estimate, t1.StageMs.RankH, t1.StageMs.Cluster, t1.StageMs.Verify = 0, 0, 0, 0
	sc.Sec = 0
	got := t1.Format() + "\n" + f6.Format() + "\n" + sc.Format()
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("tables differ from testdata/tables.golden:\n%s", got)
	}
}

func TestRunFig7Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	res, err := RunFig7(7, []int{50, 120, 250}, []int{300, 600, 900}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("Workers = %d, want 2", res.Workers)
	}
	if len(res.ByTemplates) != 3 || len(res.ByPeriod) != 3 {
		t.Fatalf("points = %d/%d", len(res.ByTemplates), len(res.ByPeriod))
	}
	for _, p := range append(res.ByTemplates, res.ByPeriod...) {
		if p.TimeSec <= 0 || p.TimeSec > 60 {
			t.Errorf("implausible sequential diagnosis time %v", p.TimeSec)
		}
		if p.ParSec <= 0 || p.ParSec > 60 {
			t.Errorf("implausible parallel diagnosis time %v", p.ParSec)
		}
	}
	// Longer anomaly periods must not be cheaper by an order of magnitude
	// (the paper observes time grows with period length).
	if res.ByPeriod[2].TimeSec < res.ByPeriod[0].TimeSec/10 {
		t.Errorf("period sweep times look wrong: %+v", res.ByPeriod)
	}
	if out := res.Format(); !strings.Contains(out, "fit:") {
		t.Errorf("format missing fit: %s", out)
	}
}

func TestRunFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario is slow")
	}
	res, err := RunFig8(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ActiveSession) != fig8End {
		t.Fatalf("timeline length = %d, want %d", len(res.ActiveSession), fig8End)
	}
	base := meanOf(res.ActiveSession, 0, fig8AnomalyStart)
	anom := meanOf(res.ActiveSession, fig8AnomalyStart+60, fig8ManualAction)
	throttled := meanOf(res.ActiveSession, fig8ManualAction+60, fig8ThrottleOff)
	returned := meanOf(res.ActiveSession, fig8ThrottleOff+60, fig8PinSQLEnabled)
	repaired := meanOf(res.ActiveSession, fig8PinSQLEnabled+120, fig8End)

	if anom < base+3 {
		t.Errorf("anomaly lift too small: base %.2f anomaly %.2f", base, anom)
	}
	// The manual Top-RT throttle reduces the phenomenon but does not
	// resolve it fundamentally; removing it brings the anomaly back.
	if throttled >= anom {
		t.Errorf("manual throttle had no effect: %.2f vs %.2f", throttled, anom)
	}
	if returned < throttled {
		t.Errorf("anomaly did not return after throttle removal: %.2f vs %.2f", returned, throttled)
	}
	// PinSQL's repair brings the metric near the baseline.
	if repaired > base+0.5*(anom-base) {
		t.Errorf("repair ineffective: base %.2f repaired %.2f anomaly %.2f", base, repaired, anom)
	}
	if !slices.Contains(res.TrueRSQLs, res.PinpointedRSQL) {
		t.Errorf("PinSQL pinpointed %s, truth %v", res.PinpointedRSQL, res.TrueRSQLs)
	}
	for _, id := range res.TrueRSQLs {
		if res.ThrottledTemplate == id {
			t.Log("note: Top-RT coincided with a true R-SQL in this seed")
		}
	}
	if !strings.Contains(res.Format(), "PinSQL pinpointed") {
		t.Error("Format incomplete")
	}
}

func TestRunTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("replay pairs are slow")
	}
	res, err := RunTableII(13, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	rsql, slow := res.Rows[0], res.Rows[1]
	if rsql.Optimized == 0 || slow.Optimized == 0 {
		t.Fatalf("no optimizations measured: %+v", res.Rows)
	}
	// The paper's claim: optimizing R-SQLs gains more than optimizing
	// slow SQLs, on both metrics.
	if rsql.TresGain <= slow.TresGain {
		t.Errorf("tres gain ordering violated: R-SQL %.1f%% ≤ slow %.1f%%\n%s",
			rsql.TresGain, slow.TresGain, res.Format())
	}
	if rsql.RowsGain <= slow.RowsGain {
		t.Errorf("rows gain ordering violated: R-SQL %.1f%% ≤ slow %.1f%%\n%s",
			rsql.RowsGain, slow.RowsGain, res.Format())
	}
	if rsql.TresGain < 60 || rsql.TresGain > 100 {
		t.Errorf("R-SQL tres gain %.1f%% implausible", rsql.TresGain)
	}
}

func TestRunTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	res, err := RunTableIII(17, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	byRT, noBkt, bkt := res.Rows[0], res.Rows[1], res.Rows[2]
	// Table III ordering: buckets ≥ no-buckets > by-RT on correlation,
	// reversed on MSE.
	if !(bkt.Corr >= noBkt.Corr && noBkt.Corr > byRT.Corr) {
		t.Errorf("correlation ordering violated:\n%s", res.Format())
	}
	if !(bkt.MSE <= noBkt.MSE && noBkt.MSE < byRT.MSE) {
		t.Errorf("MSE ordering violated:\n%s", res.Format())
	}
	if bkt.Corr < 0.9 {
		t.Errorf("bucketed correlation %.3f, want ≥ 0.9", bkt.Corr)
	}
}

func TestRunTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("stress cells are slow")
	}
	opt := StressOptions{DurationSec: 6, Seed: 19}
	res, err := RunTableIV(opt)
	if err != nil {
		t.Fatal(err)
	}
	normal := res.Cells[dbsim.PerfSchemaOff]
	full := res.Cells[dbsim.PerfSchemaConIns]
	pfs := res.Cells[dbsim.PerfSchemaOn]
	for _, mix := range res.Mixes {
		if normal[mix].QPS <= 0 {
			t.Fatalf("no throughput for %s", mix)
		}
		if normal[mix].Decline != 0 {
			t.Errorf("normal decline = %v", normal[mix].Decline)
		}
		// pfs alone costs ~8–13 %; everything on costs ~26–30 %.
		if pfs[mix].Decline < 5 || pfs[mix].Decline > 18 {
			t.Errorf("%s pfs decline = %.2f%%, want ~8–13%%", mix, pfs[mix].Decline)
		}
		if full[mix].Decline < 20 || full[mix].Decline > 36 {
			t.Errorf("%s pfs+con+ins decline = %.2f%%, want ~26–30%%", mix, full[mix].Decline)
		}
		if full[mix].Decline <= pfs[mix].Decline {
			t.Errorf("%s full decline ≤ pfs decline", mix)
		}
	}
	if !strings.Contains(res.Format(), "pfs+con+ins") {
		t.Error("Format missing rows")
	}
}

func TestRunParamSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is slow")
	}
	res, err := RunParamSweep(SmallCorpus(23, 4), "ks", []float64{5, 30, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Cases != 4 {
		t.Fatalf("sweep = %+v", res)
	}
	if _, err := RunParamSweep(SmallCorpus(23, 1), "nope", []float64{1}); err == nil {
		t.Error("unknown parameter accepted")
	}
	if !strings.Contains(res.Format(), "ks") {
		t.Error("Format incomplete")
	}
}
