package repair

import (
	"testing"

	"pinsql/internal/anomaly"
	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// fakeCase builds a minimal anomaly case with one template whose
// examined-rows series spikes inside the anomaly window.
func fakeCase(metric string, feature anomaly.Feature) *anomaly.Case {
	n := 300
	as, ae := 200, 260
	count := make(timeseries.Series, n)
	rows := make(timeseries.Series, n)
	rt := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		count[i] = 10 + float64(i%2)
		rows[i] = 100 + float64(i%3)
		rt[i] = 50
		if i >= as && i < ae {
			count[i] += 40
			rows[i] += 100_000
			rt[i] += 5000
		}
	}
	f := &window.Frame{
		Seconds: n,
		Templates: []window.Template{{
			Meta:    window.Meta{ID: "RSQL1", Table: "orders"},
			Count:   count,
			SumRT:   rt,
			SumRows: rows,
		}},
		Off: make([]int32, 2),
	}
	f.Finalize()
	return anomaly.NewCase(f, anomaly.Phenomenon{
		Rule:  metric + "_anomaly",
		Start: as,
		End:   ae,
		Events: []anomaly.Event{
			{Metric: metric, Feature: feature, Start: as, End: ae},
		},
	})
}

func TestSuggestSessionPileup(t *testing.T) {
	m := New(DefaultConfig(), Optimizer{})
	c := fakeCase(anomaly.MetricActiveSession, anomaly.SpikeUp)
	sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"})
	var actions []string
	for _, s := range sugg {
		actions = append(actions, s.Action)
		if s.Template != "RSQL1" {
			t.Errorf("suggestion targets %q", s.Template)
		}
	}
	if len(actions) != 2 || actions[0] != ActionThrottle || actions[1] != ActionOptimize {
		t.Errorf("actions = %v, want [throttle optimize]", actions)
	}
	// Default throttle: half the anomaly-window rate (≈ 50/2).
	if sugg[0].Value < 20 || sugg[0].Value > 30 {
		t.Errorf("throttle QPS = %v, want ≈ 25", sugg[0].Value)
	}
}

func TestSuggestCPUBurnRequiresRowsSpike(t *testing.T) {
	m := New(DefaultConfig(), Optimizer{})
	c := fakeCase(anomaly.MetricCPUUsage, anomaly.SpikeUp)
	sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"})
	found := false
	for _, s := range sugg {
		if s.Rule == "cpu-burn" && s.Action == ActionOptimize {
			found = true
			if len(s.Notify) == 0 {
				t.Error("cpu-burn suggestion should carry notify channels")
			}
		}
	}
	if !found {
		t.Errorf("no cpu-burn optimize suggestion: %+v", sugg)
	}

	// Flatten the rows series: the template condition must now fail.
	flat := fakeCase(anomaly.MetricCPUUsage, anomaly.SpikeUp)
	for i := range flat.Frame.Templates[0].SumRows {
		flat.Frame.Templates[0].SumRows[i] = 100
	}
	for _, s := range m.Suggest(flat, []sqltemplate.ID{"RSQL1"}) {
		if s.Rule == "cpu-burn" {
			t.Errorf("cpu-burn fired without a rows spike: %+v", s)
		}
	}
}

func TestSuggestNoMatchWrongMetric(t *testing.T) {
	m := New(DefaultConfig(), Optimizer{})
	c := fakeCase("mem_usage", anomaly.SpikeUp)
	if sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"}); len(sugg) != 0 {
		t.Errorf("suggestions for unmatched metric: %+v", sugg)
	}
}

func TestSuggestLevelShiftSatisfiesSpike(t *testing.T) {
	m := New(DefaultConfig(), Optimizer{})
	c := fakeCase(anomaly.MetricActiveSession, anomaly.LevelShiftUp)
	if sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"}); len(sugg) == 0 {
		t.Error("level shift should satisfy a spike condition")
	}
}

type fakeSpec struct{ rows, time float64 }

// throttles records the limits Execute installs, by template: the rate
// and, for a timed rule, the expiry (0 for none).
type throttles map[string][2]float64

func (t throttles) SetThrottle(id string, qps float64) { t[id] = [2]float64{qps, 0} }

func (t throttles) SetThrottleUntil(id string, qps float64, untilMs int64) {
	t[id] = [2]float64{qps, float64(untilMs)}
}

func (f *fakeSpec) ApplyOptimization(rowsFactor, timeFactor float64) {
	f.rows = rowsFactor
	f.time = timeFactor
}

func TestExecute(t *testing.T) {
	m := New(DefaultConfig(), Optimizer{})
	c := fakeCase(anomaly.MetricActiveSession, anomaly.SpikeUp)
	sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"})

	inst := dbsim.NewInstance(dbsim.DefaultConfig())
	th := throttles{}
	spec := &fakeSpec{}
	env := Environment{
		Throttler:   th,
		Scaler:      inst,
		SpecOf:      func(id sqltemplate.ID) Optimizable { return spec },
		AutoExecute: true,
	}
	done := m.Execute(env, sugg)
	for _, s := range done {
		if !s.Executed {
			t.Errorf("suggestion not executed: %+v", s)
		}
	}
	if _, ok := th["RSQL1"]; !ok {
		t.Error("throttle not installed")
	}
	if spec.rows != 12 || spec.time != 12 {
		t.Errorf("optimization factors = %v/%v, want 12/12", spec.rows, spec.time)
	}
}

func TestExecuteRespectsAutoExecuteSwitch(t *testing.T) {
	m := New(DefaultConfig(), Optimizer{})
	c := fakeCase(anomaly.MetricActiveSession, anomaly.SpikeUp)
	sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"})
	inst := dbsim.NewInstance(dbsim.DefaultConfig())
	th := throttles{}
	env := Environment{Throttler: th, Scaler: inst, AutoExecute: false}
	done := m.Execute(env, sugg)
	for _, s := range done {
		if s.Executed {
			t.Errorf("suggestion executed without authorization: %+v", s)
		}
	}
	if len(th) != 0 {
		t.Error("throttle installed despite AutoExecute=false")
	}
}

func TestExecuteAutoScale(t *testing.T) {
	cfg := Config{Rules: []Rule{{
		Name:        "grow",
		When:        Condition{Metric: anomaly.MetricActiveSession, Feature: "spike"},
		Actions:     []string{ActionAutoScale},
		AutoExecute: true,
	}}}
	m := New(cfg, Optimizer{})
	c := fakeCase(anomaly.MetricActiveSession, anomaly.SpikeUp)
	sugg := m.Suggest(c, nil)
	if len(sugg) != 1 || sugg[0].Action != ActionAutoScale {
		t.Fatalf("suggestions = %+v", sugg)
	}
	inst := dbsim.NewInstance(dbsim.DefaultConfig())
	before := inst.Cores()
	m.Execute(Environment{Scaler: inst}, sugg)
	if inst.Cores() != before*2 {
		t.Errorf("cores %d → %d, want 2×", before, inst.Cores())
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{}, Optimizer{})
	if len(m.cfg.Rules) == 0 {
		t.Error("default rules not applied")
	}
	if m.opt.RowsFactor != 12 {
		t.Error("default optimizer not applied")
	}
}

func TestTimedThrottleExecution(t *testing.T) {
	cfg := Config{Rules: []Rule{{
		Name:                "bounded",
		When:                Condition{Metric: anomaly.MetricActiveSession, Feature: "spike"},
		Actions:             []string{ActionThrottle},
		AutoExecute:         true,
		ThrottleQPS:         5,
		ThrottleDurationSec: 60,
	}}}
	m := New(cfg, Optimizer{})
	c := fakeCase(anomaly.MetricActiveSession, anomaly.SpikeUp)
	sugg := m.Suggest(c, []sqltemplate.ID{"RSQL1"})
	if len(sugg) != 1 || sugg[0].DurationMs != 60_000 {
		t.Fatalf("suggestions = %+v", sugg)
	}
	th := throttles{}
	done := m.Execute(Environment{Throttler: th, NowMs: 10_000}, sugg)
	if !done[0].Executed {
		t.Fatal("not executed")
	}
	if got, want := th["RSQL1"], [2]float64{5, 70_000}; got != want {
		t.Errorf("throttle (qps, until) = %v, want %v", got, want)
	}
}
