package bench

import (
	"testing"

	"pinsql/internal/workload"
)

// TestScenarioAccuracyFloors pins per-family accuracy floors on a fixed
// corpus. The floors are set below the calibrated values (spike/poor/storm
// diagnose perfectly; MDL is the known-weak family — the adversarial
// fuzzer's corpus is full of its misses), so genuine regressions fail
// while improvements pass.
func TestScenarioAccuracyFloors(t *testing.T) {
	opt := SmallCorpus(1, 8)
	opt.TraceSec = 600
	opt.AnomalyStartSec = 300
	opt.AnomalyMinDurSec = 120
	opt.AnomalyMaxDurSec = 180
	opt.Workers = 1

	ev, err := Evaluate(opt, Fig6Variants()[:1])
	if err != nil {
		t.Fatal(err)
	}
	res := ev.Scenario()
	t.Log("\n" + res.Format())
	if res.Cases != 8 {
		t.Fatalf("corpus ran %d cases, want 8", res.Cases)
	}

	floors := []struct {
		kind                workload.AnomalyKind
		detect, rPrec, rRec float64
		hRec, h1            float64
	}{
		{workload.KindBusinessSpike, 0.99, 0.90, 0.99, 0.90, 0.99},
		{workload.KindPoorSQL, 0.99, 0.90, 0.99, 0.90, 0.99},
		{workload.KindLockStorm, 0.99, 0.90, 0.99, 0.50, 0.99},
		// MDL: the DDL statement itself is hard to surface in the R-SQL
		// list (it barely executes); hold the current floor, don't bless
		// further decay.
		{workload.KindMDL, 0.99, 0.05, 0.45, 0.60, 0.45},
	}
	for _, f := range floors {
		row := res.Row(f.kind)
		if row == nil {
			t.Fatalf("no row for %s", f.kind)
		}
		if row.Cases != 2 {
			t.Errorf("%s: %d cases, want 2", f.kind, row.Cases)
		}
		check := func(name string, got, floor float64) {
			if got < floor {
				t.Errorf("%s: %s = %.3f below committed floor %.2f", f.kind, name, got, floor)
			}
		}
		check("detect", row.Detected, f.detect)
		check("r_precision", row.RPrecision, f.rPrec)
		check("r_recall", row.RRecall, f.rRec)
		check("h_recall", row.HRecall, f.hRec)
		check("h@1", row.H1, f.h1)
	}
}
