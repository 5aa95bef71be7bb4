// Package anomaly implements the Anomaly Detection component of PinSQL's
// first module (§IV-B). It is organized exactly as the paper describes:
//
//   - a Basic Perception Layer that detects anomalous features (spike
//     up/down, level shift up/down) on individual performance metrics, and
//   - a Phenomenon Perception Layer that recognizes configured combinations
//     of those features (e.g. [active_session.spike]) as anomalous
//     phenomena, merges phenomena of the same type that occur close in
//     time, and drops phenomena shorter than a configurable duration.
//
// A recognized phenomenon is packaged as a Case (Definition II.2): the
// performance metrics M, the SQL templates Q with their aggregated series,
// and the anomaly window [as, ae), widened on the left by δs so the root
// cause — which usually appears before the detected anomaly — is inside the
// collected data.
package anomaly

import (
	"fmt"
	"sort"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// Feature is one anomalous feature kind of the Basic Perception Layer.
type Feature int

// Anomalous features (§II: spike up/down, level shift up/down).
const (
	SpikeUp Feature = iota
	SpikeDown
	LevelShiftUp
	LevelShiftDown
)

// String returns the configuration-file name of the feature.
func (f Feature) String() string {
	switch f {
	case SpikeUp:
		return "spike"
	case SpikeDown:
		return "spike_down"
	case LevelShiftUp:
		return "levelshift"
	case LevelShiftDown:
		return "levelshift_down"
	}
	return "unknown"
}

// Event is one detected anomalous feature on one metric.
type Event struct {
	Metric  string
	Feature Feature
	Start   int // second index, inclusive
	End     int // second index, exclusive
}

// Config tunes the two perception layers.
type Config struct {
	// SpikeZ is the robust z-score threshold of the spike detector.
	SpikeZ float64
	// ShiftWindow and ShiftZ configure the level-shift detector.
	ShiftWindow int
	ShiftZ      float64
	// MinDurationSec drops phenomena shorter than this ("users can
	// configure to ignore anomalies when their duration is less than a
	// certain length of time").
	MinDurationSec int
	// MergeGapSec merges same-type phenomena closer than this ("if
	// multiple anomaly phenomena of the same type occur close in time,
	// they will be merged into a longer anomaly").
	MergeGapSec int
}

// DefaultConfig returns the detection defaults used in production.
func DefaultConfig() Config {
	return Config{
		SpikeZ:         8,
		ShiftWindow:    30,
		ShiftZ:         6,
		MinDurationSec: 5,
		MergeGapSec:    60,
	}
}

// Detector runs both perception layers.
type Detector struct {
	cfg Config
}

// NewDetector creates a detector; zero-valued config fields fall back to
// defaults.
func NewDetector(cfg Config) *Detector {
	def := DefaultConfig()
	if cfg.SpikeZ <= 0 {
		cfg.SpikeZ = def.SpikeZ
	}
	if cfg.ShiftWindow <= 0 {
		cfg.ShiftWindow = def.ShiftWindow
	}
	if cfg.ShiftZ <= 0 {
		cfg.ShiftZ = def.ShiftZ
	}
	if cfg.MinDurationSec <= 0 {
		cfg.MinDurationSec = def.MinDurationSec
	}
	if cfg.MergeGapSec <= 0 {
		cfg.MergeGapSec = def.MergeGapSec
	}
	return &Detector{cfg: cfg}
}

// DetectFeatures runs the Basic Perception Layer on one metric series and
// returns every detected anomalous feature, sorted by start time.
func (d *Detector) DetectFeatures(metric string, s timeseries.Series) []Event {
	var events []Event
	for _, sp := range s.DetectSpikes(d.cfg.SpikeZ) {
		f := SpikeUp
		if sp.Direction == timeseries.SpikeDown {
			f = SpikeDown
		}
		events = append(events, Event{Metric: metric, Feature: f, Start: sp.Start, End: sp.End})
	}
	for _, sh := range s.DetectLevelShifts(d.cfg.ShiftWindow, d.cfg.ShiftZ) {
		f := LevelShiftUp
		if sh.Direction == timeseries.SpikeDown {
			f = LevelShiftDown
		}
		// A level shift's extent: from the change point until the series
		// returns near its pre-shift level, or the trace end.
		end := shiftExtent(s, sh.At, sh.Delta)
		events = append(events, Event{Metric: metric, Feature: f, Start: sh.At, End: end})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Feature < events[j].Feature
	})
	return events
}

// shiftExtent scans forward from a level-shift change point and returns the
// first index where the series has recovered to within half the shift of
// the pre-shift mean, or the series end.
func shiftExtent(s timeseries.Series, at int, delta float64) int {
	pre := s.Slice(0, at).Mean()
	for i := at; i < len(s); i++ {
		recovered := (delta > 0 && s[i] < pre+delta/2) || (delta < 0 && s[i] > pre+delta/2)
		if recovered {
			return i
		}
	}
	return len(s)
}

// Condition is one metric/feature requirement inside a phenomenon rule.
type Condition struct {
	Metric   string
	Features []Feature // any of these qualifies
}

// Rule is a Phenomenon Perception Layer configuration: the phenomenon fires
// when every condition has a matching basic-layer event overlapping in time.
// The paper's example configuration `[active_session.spike]` is a rule with
// a single condition.
type Rule struct {
	Name       string
	Conditions []Condition
}

// String renders the rule in the paper's bracket notation.
func (r Rule) String() string {
	out := "["
	for i, c := range r.Conditions {
		if i > 0 {
			out += ", "
		}
		for j, f := range c.Features {
			if j > 0 {
				out += "|"
			}
			out += fmt.Sprintf("%s.%s", c.Metric, f)
		}
	}
	return out + "]"
}

// DefaultRules is the production default configuration: anomalies on the
// active session, CPU usage and IOPS usage metrics (§IV-B).
func DefaultRules() []Rule {
	mk := func(name, metric string) Rule {
		return Rule{
			Name: name,
			Conditions: []Condition{{
				Metric:   metric,
				Features: []Feature{SpikeUp, LevelShiftUp},
			}},
		}
	}
	return []Rule{
		mk("active_session_anomaly", MetricActiveSession),
		mk("cpu_usage_anomaly", MetricCPUUsage),
		mk("iops_usage_anomaly", MetricIOPSUsage),
	}
}

// Canonical metric names used across the system.
const (
	MetricActiveSession = "active_session"
	MetricCPUUsage      = "cpu_usage"
	MetricIOPSUsage     = "iops_usage"
	MetricRowLockWaits  = "innodb_row_lock_waits"
	MetricMDLWaits      = "mdl_waits"
)

// WatchedMetrics names the three series the default rules watch, in the
// form DetectPhenomena takes them.
func WatchedMetrics(activeSession, cpuUsage, iopsUsage timeseries.Series) map[string]timeseries.Series {
	return map[string]timeseries.Series{
		MetricActiveSession: activeSession,
		MetricCPUUsage:      cpuUsage,
		MetricIOPSUsage:     iopsUsage,
	}
}

// DetectDefault is detection as production runs it: the default thresholds
// and DefaultRules over one window's three watched metrics.
func DetectDefault(activeSession, cpuUsage, iopsUsage timeseries.Series) []Phenomenon {
	return NewDetector(Config{}).DetectPhenomena(WatchedMetrics(activeSession, cpuUsage, iopsUsage), DefaultRules())
}

// Phenomenon is a recognized anomalous phenomenon: a rule that fired over a
// time window, with the contributing basic-layer events.
type Phenomenon struct {
	Rule   string
	Start  int // second index, inclusive
	End    int // second index, exclusive
	Events []Event
}

// Duration returns the phenomenon length in seconds.
func (p Phenomenon) Duration() int { return p.End - p.Start }

// DetectPhenomena runs both layers over a set of named metric series and
// returns the recognized phenomena, merged and duration-filtered.
func (d *Detector) DetectPhenomena(metrics map[string]timeseries.Series, rules []Rule) []Phenomenon {
	features := make(map[string][]Event, len(metrics))
	for name, s := range metrics {
		features[name] = d.DetectFeatures(name, s)
	}
	// The Phenomenon Perception Layer proper: rule application over the
	// basic-layer features, same-type merging, duration filtering and the
	// deterministic final order.
	var phenomena []Phenomenon
	for _, rule := range rules {
		phenomena = append(phenomena, d.applyRule(rule, features)...)
	}
	phenomena = d.mergePhenomena(phenomena)

	kept := phenomena[:0]
	for _, p := range phenomena {
		if p.Duration() >= d.cfg.MinDurationSec {
			kept = append(kept, p)
		}
	}
	// Stable with a rule tiebreak: phenomena order must be a pure function
	// of the input (diagnosis reports are compared byte-for-byte across
	// runs), and an unstable sort reorders equal-Start entries at random.
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Start != kept[j].Start {
			return kept[i].Start < kept[j].Start
		}
		return kept[i].Rule < kept[j].Rule
	})
	return kept
}

// applyRule finds time windows where every condition of the rule has a
// matching event. For single-condition rules (the common configuration)
// each matching event yields one phenomenon; multi-condition rules require
// overlap with the first condition's events.
func (d *Detector) applyRule(rule Rule, features map[string][]Event) []Phenomenon {
	if len(rule.Conditions) == 0 {
		return nil
	}
	anchors := matching(features, rule.Conditions[0])
	var out []Phenomenon
	for _, anchor := range anchors {
		events := []Event{anchor}
		ok := true
		for _, cond := range rule.Conditions[1:] {
			found := false
			for _, ev := range matching(features, cond) {
				if ev.Start < anchor.End && anchor.Start < ev.End {
					events = append(events, ev)
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		start, end := anchor.Start, anchor.End
		for _, ev := range events[1:] {
			if ev.Start < start {
				start = ev.Start
			}
			if ev.End > end {
				end = ev.End
			}
		}
		out = append(out, Phenomenon{Rule: rule.Name, Start: start, End: end, Events: events})
	}
	return out
}

func matching(features map[string][]Event, cond Condition) []Event {
	var out []Event
	for _, ev := range features[cond.Metric] {
		for _, f := range cond.Features {
			if ev.Feature == f {
				out = append(out, ev)
				break
			}
		}
	}
	return out
}

// mergePhenomena merges same-rule phenomena whose gap is below MergeGapSec.
func (d *Detector) mergePhenomena(ps []Phenomenon) []Phenomenon {
	byRule := make(map[string][]Phenomenon)
	for _, p := range ps {
		byRule[p.Rule] = append(byRule[p.Rule], p)
	}
	rules := make([]string, 0, len(byRule))
	for rule := range byRule {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	var out []Phenomenon
	for _, rule := range rules {
		group := byRule[rule]
		sort.SliceStable(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		cur := group[0]
		for _, p := range group[1:] {
			if p.Start-cur.End <= d.cfg.MergeGapSec {
				if p.End > cur.End {
					cur.End = p.End
				}
				cur.Events = append(cur.Events, p.Events...)
				continue
			}
			out = append(out, cur)
			cur = p
		}
		out = append(out, cur)
	}
	return out
}

// Case is an anomaly case C = (M, Q, as, ae) per Definition II.2, plus the
// per-template history windows the R-SQL verifier needs (§VI). All times
// are second indexes into the frame's window [ts, te), where
// ts = as − δs.
type Case struct {
	Frame      *window.Frame // the window the case was detected on
	Phenomenon Phenomenon
	AS, AE     int // anomaly window [as, ae) in frame-relative seconds

	// History holds #execution series of earlier, same-length windows
	// (Nd days ago), used by History Trend Verification.
	History []HistoryWindow
}

// HistoryWindow is a template→#execution map for one relative day offset.
type HistoryWindow struct {
	DaysAgo int
	Counts  map[sqltemplate.ID]timeseries.Series
}

// NewCase builds a Case from a window frame and a phenomenon recognized on
// it.
func NewCase(f *window.Frame, p Phenomenon) *Case {
	as, ae := p.Start, p.End
	if as < 0 {
		as = 0
	}
	if ae > f.Seconds {
		ae = f.Seconds
	}
	return &Case{Frame: f, Phenomenon: p, AS: as, AE: ae}
}
