package anomaly

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// flatWithSpike builds a stable series with a spike of the given height
// over [from, to).
func flatWithSpike(n, from, to int, base, height float64) timeseries.Series {
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = base + float64(i%3)
		if i >= from && i < to {
			s[i] += height
		}
	}
	return s
}

func TestDetectFeaturesSpike(t *testing.T) {
	d := NewDetector(Config{})
	s := flatWithSpike(300, 100, 120, 10, 200)
	events := d.DetectFeatures(MetricActiveSession, s)
	var spikes []Event
	for _, ev := range events {
		if ev.Feature == SpikeUp {
			spikes = append(spikes, ev)
		}
	}
	if len(spikes) != 1 {
		t.Fatalf("spike events = %+v, want 1", spikes)
	}
	if spikes[0].Start != 100 || spikes[0].End != 120 {
		t.Errorf("spike window = [%d,%d), want [100,120)", spikes[0].Start, spikes[0].End)
	}
	if spikes[0].Metric != MetricActiveSession {
		t.Errorf("metric = %s", spikes[0].Metric)
	}
}

func TestDetectFeaturesLevelShift(t *testing.T) {
	d := NewDetector(Config{})
	s := make(timeseries.Series, 400)
	for i := range s {
		if i < 200 {
			s[i] = 10 + float64(i%2)
		} else {
			s[i] = 60 + float64(i%2)
		}
	}
	events := d.DetectFeatures(MetricCPUUsage, s)
	found := false
	for _, ev := range events {
		if ev.Feature == LevelShiftUp && ev.Start >= 180 && ev.Start <= 220 {
			found = true
			if ev.End != len(s) {
				t.Errorf("unrecovered shift end = %d, want %d", ev.End, len(s))
			}
		}
	}
	if !found {
		t.Errorf("no level shift found in %+v", events)
	}
}

func TestDetectFeaturesQuietSeries(t *testing.T) {
	d := NewDetector(Config{})
	s := flatWithSpike(200, 0, 0, 10, 0)
	if events := d.DetectFeatures("m", s); len(events) != 0 {
		t.Errorf("events on quiet series = %+v", events)
	}
}

// detectorTestSeries builds metric traces that exercise every detector
// path: quiet noise, spikes in both directions, a level shift, a constant
// metric (zero MAD and zero Std) and a noisy one with a burst and a drop.
func detectorTestSeries(n int) map[string]timeseries.Series {
	rng := rand.New(rand.NewSource(0))
	quiet := make(timeseries.Series, n)
	spiky := make(timeseries.Series, n)
	shifted := make(timeseries.Series, n)
	constant := make(timeseries.Series, n)
	mixed := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		base := 10 + rng.Float64()
		quiet[i] = base
		spiky[i] = base
		if i%37 == 0 {
			spiky[i] += 40 + rng.Float64()*10
		}
		if i%53 == 1 {
			spiky[i] -= 35
		}
		shifted[i] = base
		if i >= n/2 {
			shifted[i] += 25
		}
		constant[i] = 4
		mixed[i] = base + rng.NormFloat64()
		if i > n/3 && i < n/3+8 {
			mixed[i] += 60
		}
		if i >= 3*n/4 {
			mixed[i] -= 18
		}
	}
	return map[string]timeseries.Series{
		MetricActiveSession: spiky,
		MetricCPUUsage:      shifted,
		MetricIOPSUsage:     quiet,
		"mem_usage":         constant,
		"qps":               mixed,
	}
}

// detectorTestConfigs are the defaults and two non-default rows: low
// thresholds (dense events) and mid ones.
var detectorTestConfigs = []struct {
	name string
	cfg  Config
}{
	{"defaults", Config{}},
	{"sensitive", Config{SpikeZ: 2.5, ShiftWindow: 10, ShiftZ: 2, MinDurationSec: 1, MergeGapSec: 5}},
	{"mid", Config{SpikeZ: 3, ShiftWindow: 12, ShiftZ: 3, MinDurationSec: 1, MergeGapSec: 10}},
}

// TestDetectFeaturesRows pins the Basic Perception Layer, per config and
// metric, at prefixes of the traces — one sample, shorter than any
// 2·ShiftWindow, mid-window and whole. The expected events were printed at
// the commit that still had a second, rolling-state detector held equal to
// this one at every prefix; a row the table does not name has no events.
func TestDetectFeaturesRows(t *testing.T) {
	want := map[string]string{
		"defaults/active_session/7":    "spike[0,1) spike_down[1,2)",
		"defaults/active_session/80":   "spike[0,1) spike_down[1,2) spike[37,38) spike_down[54,55) spike[74,75)",
		"defaults/active_session/120":  "spike[0,1) spike_down[1,2) spike[37,38) spike_down[54,55) spike[74,75) spike_down[107,108) spike[111,112)",
		"defaults/active_session/240":  "spike[0,1) spike_down[1,2) spike[37,38) levelshift_down[42,44) spike_down[54,55) spike[74,75) spike_down[107,108) spike[111,112) spike[148,149) spike_down[160,161) spike[185,186) spike_down[213,214) spike[222,223)",
		"defaults/cpu_usage/240":       "levelshift[120,240)",
		"defaults/qps/120":             "levelshift[78,78) spike[81,88) levelshift_down[89,90)",
		"defaults/qps/240":             "levelshift[78,78) spike[81,88) levelshift_down[89,90) spike_down[180,240) levelshift_down[180,240)",
		"sensitive/active_session/7":   "spike[0,1) spike_down[1,2)",
		"sensitive/active_session/80":  "spike[0,1) spike_down[1,2) levelshift[11,11) spike[37,38) levelshift[37,38) levelshift_down[47,47) spike_down[54,55) levelshift[66,66) spike[74,75)",
		"sensitive/active_session/120": "spike[0,1) spike_down[1,2) levelshift[11,11) spike[37,38) levelshift[37,38) levelshift_down[47,47) spike_down[54,55) levelshift[66,66) spike[74,75) levelshift_down[75,75) levelshift_down[100,100) spike_down[107,108) levelshift[110,110) spike[111,112)",
		"sensitive/active_session/240": "spike[0,1) spike_down[1,2) levelshift[11,11) spike[37,38) levelshift[37,38) levelshift_down[47,47) spike_down[54,55) levelshift[66,66) spike[74,75) levelshift_down[75,75) levelshift_down[100,100) spike_down[107,108) spike[111,112) levelshift[111,112) levelshift_down[118,118) spike[148,149) levelshift[148,149) levelshift_down[156,156) spike_down[160,161) levelshift[169,169) levelshift[184,184) spike[185,186) levelshift_down[189,189) levelshift_down[211,211) spike_down[213,214) levelshift[214,214) spike[222,223) levelshift_down[229,229)",
		"sensitive/cpu_usage/240":      "levelshift[120,240)",
		"sensitive/qps/80":             "spike[23,24)",
		"sensitive/qps/120":            "spike[23,24) levelshift[78,78) spike[81,88) levelshift_down[88,88) spike_down[89,90)",
		"sensitive/qps/240":            "levelshift[78,78) spike[81,88) levelshift_down[88,88) spike_down[180,240) levelshift_down[180,240)",
		"mid/active_session/7":         "spike[0,1) spike_down[1,2)",
		"mid/active_session/80":        "spike[0,1) spike_down[1,2) levelshift[13,13) levelshift[26,26) spike[37,38) levelshift_down[48,48) spike_down[54,55) levelshift[63,63) spike[74,75)",
		"mid/active_session/120":       "spike[0,1) spike_down[1,2) levelshift[13,13) levelshift[26,26) spike[37,38) levelshift_down[48,48) spike_down[54,55) levelshift[63,63) spike[74,75) levelshift_down[75,75) levelshift_down[99,99) spike_down[107,108) levelshift[108,108) spike[111,112)",
		"mid/active_session/240":       "spike[0,1) spike_down[1,2) levelshift[13,13) levelshift[26,26) spike[37,38) levelshift_down[48,48) spike_down[54,55) levelshift[63,63) spike[74,75) levelshift_down[75,75) levelshift_down[99,99) spike_down[107,108) spike[111,112) levelshift[111,112) levelshift_down[123,123) spike[148,149) levelshift[148,149) levelshift_down[157,157) spike_down[160,161) levelshift[165,165) spike[185,186) levelshift[185,186) levelshift_down[188,188) levelshift_down[209,209) spike_down[213,214) levelshift[214,214) spike[222,223) levelshift_down[226,226)",
		"mid/cpu_usage/240":            "levelshift[120,240)",
		"mid/qps/80":                   "spike[23,24)",
		"mid/qps/120":                  "spike[23,24) levelshift[77,77) spike[81,88) spike_down[89,90) levelshift_down[89,89)",
		"mid/qps/240":                  "levelshift[77,77) spike[81,88) levelshift_down[89,89) spike_down[180,240) levelshift_down[180,240)",
	}
	metrics := detectorTestSeries(240)
	seen := 0
	for _, tc := range detectorTestConfigs {
		d := NewDetector(tc.cfg)
		for name, s := range metrics {
			for _, n := range []int{1, 7, 80, 120, 240} {
				var got string
				for _, ev := range d.DetectFeatures(name, s[:n]) {
					if ev.Metric != name {
						t.Errorf("event metric = %s, want %s", ev.Metric, name)
					}
					got += fmt.Sprintf("%s[%d,%d) ", ev.Feature, ev.Start, ev.End)
				}
				key := fmt.Sprintf("%s/%s/%d", tc.name, name, n)
				w, ok := want[key]
				if ok {
					seen++
				}
				if got = strings.TrimSpace(got); got != w {
					t.Errorf("%s: events = %q, want %q", key, got, w)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%d of %d expected rows were reached", seen, len(want))
	}
}

// TestDetectPhenomenaRows pins both layers over the whole traces under
// rules on all five metrics, down-going features included.
func TestDetectPhenomenaRows(t *testing.T) {
	rules := append(DefaultRules(), Rule{
		Name: "qps_anomaly",
		Conditions: []Condition{{
			Metric:   "qps",
			Features: []Feature{SpikeUp, SpikeDown, LevelShiftUp, LevelShiftDown},
		}},
	}, Rule{
		Name: "mem_anomaly",
		Conditions: []Condition{{
			Metric:   "mem_usage",
			Features: []Feature{SpikeUp, LevelShiftUp},
		}},
	})
	want := map[string]string{
		"defaults":  "active_session_anomaly[0,223)x7 qps_anomaly[78,90)x3 cpu_usage_anomaly[120,240)x1 qps_anomaly[180,240)x2",
		"sensitive": "active_session_anomaly[0,1)x1 active_session_anomaly[37,38)x2 active_session_anomaly[74,75)x1 qps_anomaly[78,88)x3 active_session_anomaly[111,112)x2 cpu_usage_anomaly[120,240)x1 active_session_anomaly[148,149)x2 qps_anomaly[180,240)x2 active_session_anomaly[184,186)x2 active_session_anomaly[222,223)x1",
		"mid":       "active_session_anomaly[0,1)x1 active_session_anomaly[37,38)x1 active_session_anomaly[74,75)x1 qps_anomaly[77,89)x3 active_session_anomaly[111,112)x2 cpu_usage_anomaly[120,240)x1 active_session_anomaly[148,149)x2 qps_anomaly[180,240)x2 active_session_anomaly[185,186)x2 active_session_anomaly[214,223)x2",
	}
	metrics := detectorTestSeries(240)
	for _, tc := range detectorTestConfigs {
		var got string
		for _, p := range NewDetector(tc.cfg).DetectPhenomena(metrics, rules) {
			got += fmt.Sprintf("%s[%d,%d)x%d ", p.Rule, p.Start, p.End, len(p.Events))
		}
		if got = strings.TrimSpace(got); got != want[tc.name] {
			t.Errorf("%s: phenomena = %q, want %q", tc.name, got, want[tc.name])
		}
	}
}

func TestDetectPhenomenaDefaultRules(t *testing.T) {
	d := NewDetector(Config{})
	metrics := map[string]timeseries.Series{
		MetricActiveSession: flatWithSpike(600, 300, 330, 5, 100),
		MetricCPUUsage:      flatWithSpike(600, 0, 0, 20, 0),
		MetricIOPSUsage:     flatWithSpike(600, 0, 0, 30, 0),
	}
	ps := d.DetectPhenomena(metrics, DefaultRules())
	if len(ps) != 1 {
		t.Fatalf("phenomena = %+v, want 1", ps)
	}
	p := ps[0]
	if p.Rule != "active_session_anomaly" {
		t.Errorf("rule = %s", p.Rule)
	}
	if p.Start != 300 || p.End != 330 {
		t.Errorf("window = [%d,%d), want [300,330)", p.Start, p.End)
	}
}

func TestDetectPhenomenaMinDuration(t *testing.T) {
	d := NewDetector(Config{MinDurationSec: 10})
	metrics := map[string]timeseries.Series{
		MetricActiveSession: flatWithSpike(300, 100, 104, 5, 100), // 4 s — too short
	}
	if ps := d.DetectPhenomena(metrics, DefaultRules()); len(ps) != 0 {
		t.Errorf("short phenomenon not dropped: %+v", ps)
	}
}

func TestDetectPhenomenaMerging(t *testing.T) {
	d := NewDetector(Config{MergeGapSec: 60})
	s := flatWithSpike(600, 100, 120, 5, 100)
	for i := 150; i < 170; i++ {
		s[i] += 100 // second spike 30 s after the first: should merge
	}
	metrics := map[string]timeseries.Series{MetricActiveSession: s}
	ps := d.DetectPhenomena(metrics, DefaultRules())
	if len(ps) != 1 {
		t.Fatalf("phenomena = %+v, want 1 merged", ps)
	}
	// The merged phenomenon must cover both spikes; the exact start may
	// land slightly early when the level-shift feature also fires.
	if ps[0].Start > 100 || ps[0].Start < 80 || ps[0].End != 170 {
		t.Errorf("merged window = [%d,%d), want ≈ [100,170)", ps[0].Start, ps[0].End)
	}
}

func TestDetectPhenomenaNoMergeAcrossGap(t *testing.T) {
	d := NewDetector(Config{MergeGapSec: 20})
	s := flatWithSpike(600, 100, 120, 5, 100)
	for i := 300; i < 320; i++ {
		s[i] += 100 // 180 s later: distinct anomaly
	}
	metrics := map[string]timeseries.Series{MetricActiveSession: s}
	ps := d.DetectPhenomena(metrics, DefaultRules())
	if len(ps) != 2 {
		t.Fatalf("phenomena = %+v, want 2", ps)
	}
}

func TestMultiConditionRule(t *testing.T) {
	d := NewDetector(Config{})
	rule := Rule{
		Name: "cpu_and_session",
		Conditions: []Condition{
			{Metric: MetricActiveSession, Features: []Feature{SpikeUp}},
			{Metric: MetricCPUUsage, Features: []Feature{SpikeUp}},
		},
	}
	// Overlapping spikes on both metrics → fires.
	metrics := map[string]timeseries.Series{
		MetricActiveSession: flatWithSpike(300, 100, 130, 5, 100),
		MetricCPUUsage:      flatWithSpike(300, 110, 140, 20, 300),
	}
	ps := d.DetectPhenomena(metrics, []Rule{rule})
	if len(ps) != 1 {
		t.Fatalf("phenomena = %+v, want 1", ps)
	}
	if ps[0].Start != 100 || ps[0].End != 140 {
		t.Errorf("window = [%d,%d), want union [100,140)", ps[0].Start, ps[0].End)
	}
	// CPU quiet → rule must not fire.
	metrics[MetricCPUUsage] = flatWithSpike(300, 0, 0, 20, 0)
	if ps := d.DetectPhenomena(metrics, []Rule{rule}); len(ps) != 0 {
		t.Errorf("rule fired without second condition: %+v", ps)
	}
}

func TestRuleString(t *testing.T) {
	r := DefaultRules()[0]
	s := r.String()
	if !strings.Contains(s, "active_session.spike") {
		t.Errorf("rule string = %q", s)
	}
}

func TestFeatureStrings(t *testing.T) {
	if SpikeUp.String() != "spike" || LevelShiftUp.String() != "levelshift" {
		t.Error("feature names wrong")
	}
	if SpikeDown.String() != "spike_down" || LevelShiftDown.String() != "levelshift_down" {
		t.Error("down feature names wrong")
	}
	if Feature(99).String() != "unknown" {
		t.Error("unknown feature name wrong")
	}
}

func TestNewCaseClampsWindow(t *testing.T) {
	c := NewCase(&window.Frame{Seconds: 100}, Phenomenon{Start: -5, End: 400})
	if c.AS != 0 || c.AE != 100 {
		t.Errorf("case window = [%d,%d), want [0,100)", c.AS, c.AE)
	}
}

func TestPhenomenonDuration(t *testing.T) {
	if (Phenomenon{Start: 3, End: 10}).Duration() != 7 {
		t.Error("phenomenon duration wrong")
	}
}

func TestDetectorDefaultsApplied(t *testing.T) {
	d := NewDetector(Config{})
	if d.cfg.SpikeZ != DefaultConfig().SpikeZ {
		t.Error("default SpikeZ not applied")
	}
	d2 := NewDetector(Config{SpikeZ: 3})
	if d2.cfg.SpikeZ != 3 {
		t.Error("explicit SpikeZ overridden")
	}
}
