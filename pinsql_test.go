package pinsql

import (
	"testing"
)

// endToEnd simulates a lock storm and returns the run plus the first
// detected case.
func endToEnd(t *testing.T) (*Run, *Case, TemplateID) {
	t.Helper()
	world := NewDemoWorld(1)
	storm := world.InjectLockStorm(world.Services[2], "orders", 7, 600_000, 900_000)
	run, err := Simulate(world, SimOptions{DurationSec: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	detected := run.DetectCases()
	if len(detected) == 0 {
		t.Fatal("no anomaly detected")
	}
	return run, detected[0], storm.RSQLs[0]
}

func TestSimulateProducesSnapshot(t *testing.T) {
	run, _, _ := endToEnd(t)
	f := run.Frame()
	if f.Seconds != 1500 {
		t.Errorf("seconds = %d", f.Seconds)
	}
	if len(f.Templates) < 10 {
		t.Errorf("templates = %d, want the demo world's population", len(f.Templates))
	}
	if f.ActiveSession.Sum() <= 0 {
		t.Error("no session activity recorded")
	}
}

func TestDetectCasesFindsStormWindow(t *testing.T) {
	_, c, _ := endToEnd(t)
	// The storm runs [600, 900); the detected window must overlap it.
	if c.AE <= 600 || c.AS >= 900 {
		t.Errorf("detected window [%d, %d) misses the storm", c.AS, c.AE)
	}
}

func TestDiagnosePinpointsInjectedRSQL(t *testing.T) {
	run, c, truth := endToEnd(t)
	d := run.Diagnose(c)
	if len(d.RSQLs) == 0 {
		t.Fatal("no R-SQLs")
	}
	found := false
	for i, r := range d.RSQLs {
		if i < 2 && r.ID == truth {
			found = true
		}
	}
	if !found {
		t.Errorf("truth %s not in top-2: %v", truth, d.RSQLIDs())
	}
	if len(d.HSQLs) == 0 {
		t.Fatal("no H-SQLs")
	}
}

func TestRepairSuggestionsAndExecution(t *testing.T) {
	run, c, _ := endToEnd(t)
	d := run.Diagnose(c)
	sugg := run.Repair(c, d, false)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	for _, s := range sugg {
		if s.Executed {
			t.Errorf("suggestion executed without auto: %+v", s)
		}
	}
	executed := run.Repair(c, d, true)
	anyRan := false
	for _, s := range executed {
		if s.Executed {
			anyRan = true
		}
	}
	if !anyRan {
		t.Error("auto repair executed nothing")
	}
}

func TestTopSQLFacade(t *testing.T) {
	run, c, _ := endToEnd(t)
	for _, method := range []string{"Top-RT", "Top-ER", "Top-EN"} {
		ranked, err := TopSQL(run.Frame(), c.AS, c.AE, method)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) == 0 {
			t.Errorf("%s returned nothing", method)
		}
	}
	if _, err := TopSQL(run.Frame(), c.AS, c.AE, "Top-Nope"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestNewTemplateFacade(t *testing.T) {
	a := NewTemplate("SELECT * FROM t WHERE id = 1")
	b := NewTemplate("SELECT * FROM t WHERE id = 2")
	if a.ID != b.ID {
		t.Error("literal-differing statements should share a template")
	}
	if a.Text != "SELECT * FROM t WHERE id = ?" {
		t.Errorf("text = %q", a.Text)
	}
}

func TestSimulateValidation(t *testing.T) {
	world := NewDemoWorld(2)
	run, err := Simulate(world, SimOptions{}) // defaults applied
	if err != nil {
		t.Fatal(err)
	}
	if run.Frame().Seconds != 1800 {
		t.Errorf("default duration = %d", run.Frame().Seconds)
	}
	if run.Instance.Cores() != 16 {
		t.Errorf("default cores = %d", run.Instance.Cores())
	}
}

func TestSetConfigChangesDiagnosis(t *testing.T) {
	run, c, _ := endToEnd(t)
	cfg := DefaultConfig()
	cfg.NoEstimateSession = true
	run.SetConfig(cfg)
	d := run.Diagnose(c)
	if d.FrameEst != nil {
		t.Error("estimation ran despite NoEstimateSession")
	}
}
