// Package repair implements PinSQL's Repairing Module (§VII): rule-driven
// problem-solving actions on the pinpointed R-SQLs. Three actions are
// provided — SQL Throttling, Query Optimization and Instance AutoScale —
// behind a user-editable configuration (Fig. 5): each rule matches a
// detected anomaly phenomenon, optionally requires an anomalous feature on
// the R-SQL's own template metrics (e.g. a #examined_rows spike), and lists
// the actions to suggest. Actions are only executed when the rule enables
// automatic execution; otherwise they remain suggestions for the DBA.
package repair

import (
	"pinsql/internal/anomaly"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// Action names used in configuration.
const (
	ActionThrottle  = "throttle"
	ActionOptimize  = "optimize"
	ActionAutoScale = "autoscale"
)

// Condition matches a metric/feature pair, e.g. {cpu_usage, spike}.
type Condition struct {
	Metric  string `json:"metric"`
	Feature string `json:"feature"`
}

// Rule is one configuration entry (the JSON shape mirrors Fig. 5).
type Rule struct {
	Name string `json:"name"`
	// When matches the detected anomaly phenomenon.
	When Condition `json:"when"`
	// TemplateWhen, if set, additionally requires the anomalous feature
	// on the R-SQL's own metric series ("the algorithm is adapted again
	// for detecting the anomaly phenomenon of SQL template metrics").
	TemplateWhen *Condition `json:"template_when,omitempty"`
	Actions      []string   `json:"actions"`
	AutoExecute  bool       `json:"auto_execute"`
	// Notify lists channels (DingTalk/SMS) to receive the anomaly status;
	// notifications are recorded on the suggestion, not delivered.
	Notify []string `json:"notify,omitempty"`

	// Action parameters.
	ThrottleQPS float64 `json:"throttle_qps,omitempty"` // 0 → half the observed rate
	// ThrottleDurationSec bounds the throttle's lifetime ("users can
	// customize the time duration of the throttling"); 0 → indefinite.
	ThrottleDurationSec int     `json:"throttle_duration_sec,omitempty"`
	ScaleFactor         float64 `json:"scale_factor,omitempty"` // 0 → 2×
}

// Config is the module's rule set.
type Config struct {
	Rules []Rule `json:"rules"`
}

// DefaultConfig is the paper's default behaviour: throttle-then-optimize on
// active-session anomalies, optimize on CPU/IO anomalies whose R-SQL shows
// an examined-rows spike (§VII: Query Optimization "is configured to
// execute only when the anomaly phenomenon … is related to CPU/IO usage").
func DefaultConfig() Config {
	return Config{Rules: []Rule{
		{
			Name:    "session-pileup",
			When:    Condition{Metric: anomaly.MetricActiveSession, Feature: "spike"},
			Actions: []string{ActionThrottle, ActionOptimize},
		},
		{
			Name:         "cpu-burn",
			When:         Condition{Metric: anomaly.MetricCPUUsage, Feature: "spike"},
			TemplateWhen: &Condition{Metric: "examined_rows", Feature: "spike"},
			Actions:      []string{ActionOptimize},
			Notify:       []string{"dingtalk"},
		},
		{
			Name:    "io-burn",
			When:    Condition{Metric: anomaly.MetricIOPSUsage, Feature: "spike"},
			Actions: []string{ActionOptimize},
		},
	}}
}

// Suggestion is one recommended action on one R-SQL (or the instance).
type Suggestion struct {
	Rule     string
	Action   string
	Template sqltemplate.ID // empty for instance-level actions (autoscale)
	// Params: throttle → max QPS; autoscale → scale factor.
	Value float64
	// DurationMs bounds a throttle's lifetime; 0 → indefinite.
	DurationMs int64
	Reason     string
	Notify     []string
	Executed   bool
}

// Throttler installs per-template rate limits (dbsim.Instance implements it).
type Throttler interface {
	SetThrottle(templateID string, maxQPS float64)
}

// TimedThrottler additionally supports expiring rate limits
// (dbsim.Instance implements it). Execute prefers it when a rule sets a
// throttle duration.
type TimedThrottler interface {
	SetThrottleUntil(templateID string, maxQPS float64, untilMs int64)
}

// Scaler resizes the instance (dbsim.Instance implements it).
type Scaler interface {
	Cores() int
	SetCores(n int)
}

// Optimizable is a workload statement that a query optimization (automatic
// indexing + rewrite) can improve; workload.Spec implements it.
type Optimizable interface {
	ApplyOptimization(rowsFactor, timeFactor float64)
}

// Environment wires the module to its actuators.
type Environment struct {
	Throttler Throttler
	Scaler    Scaler
	// SpecOf resolves a template to its optimizable statement; nil specs
	// skip optimization (e.g. statements the optimizer cannot rewrite).
	SpecOf func(id sqltemplate.ID) Optimizable
	// AutoExecute globally enables execution of suggestions ("users can
	// enable the automatic execution of suggested actions").
	AutoExecute bool
	// NowMs is the virtual time at which actions are applied; expiring
	// throttles are installed until NowMs + duration.
	NowMs int64
}

// Optimizer models the DAS query optimizer (automatic indexing + SQL
// rewrite): an accepted optimization divides the statement's examined rows
// and service time by the configured factors, which lands the Table II
// gains (~92 %) when the statement's slowness was self-inflicted.
type Optimizer struct {
	RowsFactor float64 // examined-rows divisor, default 12
	TimeFactor float64 // service-time divisor, default 12
}

// DefaultOptimizer matches the Table II calibration.
func DefaultOptimizer() Optimizer { return Optimizer{RowsFactor: 12, TimeFactor: 12} }

// Module evaluates rules and performs actions.
type Module struct {
	cfg Config
	opt Optimizer
}

// New creates a repairing module; zero-valued arguments use defaults.
func New(cfg Config, opt Optimizer) *Module {
	if len(cfg.Rules) == 0 {
		cfg = DefaultConfig()
	}
	if opt.RowsFactor <= 0 || opt.TimeFactor <= 0 {
		opt = DefaultOptimizer()
	}
	return &Module{cfg: cfg, opt: opt}
}

// Suggest matches the case's phenomenon against the rules and produces
// suggestions for the top R-SQLs. rsqls should be the head of the R-SQL
// ranking (the module acts on the pinpointed statements only, treating the
// downstream repairs as black boxes).
func (m *Module) Suggest(c *anomaly.Case, rsqls []sqltemplate.ID) []Suggestion {
	var out []Suggestion
	det := anomaly.NewDetector(anomaly.Config{})
	for _, rule := range m.cfg.Rules {
		if !m.phenomenonMatches(rule.When, c) {
			continue
		}
		for _, action := range rule.Actions {
			switch action {
			case ActionAutoScale:
				out = append(out, Suggestion{
					Rule:   rule.Name,
					Action: ActionAutoScale,
					Value:  scaleFactorOr(rule.ScaleFactor),
					Reason: "anticipated traffic growth; scale instead of throttling",
					Notify: rule.Notify,
				})
			case ActionThrottle, ActionOptimize:
				for _, id := range rsqls {
					ts := c.Frame.Template(id)
					if ts == nil {
						continue
					}
					if rule.TemplateWhen != nil && !templateMatches(det, *rule.TemplateWhen, ts, c) {
						continue
					}
					s := Suggestion{
						Rule:     rule.Name,
						Action:   action,
						Template: id,
						Notify:   rule.Notify,
					}
					if action == ActionThrottle {
						s.Value = rule.ThrottleQPS
						if s.Value <= 0 {
							// Default: half the anomaly-window rate.
							s.Value = ts.Count.Slice(c.AS, c.AE).Mean() / 2
							if s.Value < 1 {
								s.Value = 1
							}
						}
						s.DurationMs = int64(rule.ThrottleDurationSec) * 1000
						s.Reason = "rate-limit the root-cause statement"
					} else {
						s.Reason = "report to the query optimizer (auto index / rewrite)"
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// Execute performs the suggestions against the environment, honoring the
// global and per-rule auto-execution switches, and marks what ran.
func (m *Module) Execute(env Environment, suggestions []Suggestion) []Suggestion {
	ruleAuto := make(map[string]bool, len(m.cfg.Rules))
	for _, r := range m.cfg.Rules {
		ruleAuto[r.Name] = r.AutoExecute
	}
	for i := range suggestions {
		s := &suggestions[i]
		if !env.AutoExecute && !ruleAuto[s.Rule] {
			continue
		}
		switch s.Action {
		case ActionThrottle:
			if env.Throttler == nil {
				break
			}
			if tt, ok := env.Throttler.(TimedThrottler); ok && s.DurationMs > 0 {
				tt.SetThrottleUntil(string(s.Template), s.Value, env.NowMs+s.DurationMs)
			} else {
				env.Throttler.SetThrottle(string(s.Template), s.Value)
			}
			s.Executed = true
		case ActionOptimize:
			if env.SpecOf != nil {
				if spec := env.SpecOf(s.Template); spec != nil {
					spec.ApplyOptimization(m.opt.RowsFactor, m.opt.TimeFactor)
					s.Executed = true
				}
			}
		case ActionAutoScale:
			if env.Scaler != nil {
				cur := env.Scaler.Cores()
				target := int(float64(cur) * s.Value)
				if target <= cur {
					target = cur + 1
				}
				env.Scaler.SetCores(target)
				s.Executed = true
			}
		}
	}
	return suggestions
}

// phenomenonMatches checks the case's phenomenon against a rule condition.
// The phenomenon's rule name encodes the metric (see anomaly.DefaultRules);
// its events carry the concrete features.
func (m *Module) phenomenonMatches(cond Condition, c *anomaly.Case) bool {
	for _, ev := range c.Phenomenon.Events {
		if ev.Metric != cond.Metric {
			continue
		}
		if featureName(ev.Feature) == cond.Feature || cond.Feature == "" {
			return true
		}
		// A level shift satisfies a "spike" condition: both are upward
		// excursions; configs usually say "spike" for either.
		if cond.Feature == "spike" && ev.Feature == anomaly.LevelShiftUp {
			return true
		}
	}
	return false
}

func featureName(f anomaly.Feature) string { return f.String() }

// templateMatches re-runs the feature detector on the template's own metric
// series inside the case window.
func templateMatches(det *anomaly.Detector, cond Condition, ts *window.Template, c *anomaly.Case) bool {
	var series timeseries.Series
	switch cond.Metric {
	case "examined_rows":
		series = ts.SumRows
	case "execution_count":
		series = ts.Count
	case "response_time":
		series = ts.SumRT
	default:
		return false
	}
	for _, ev := range det.DetectFeatures(cond.Metric, series) {
		if featureName(ev.Feature) != cond.Feature && !(cond.Feature == "spike" && ev.Feature == anomaly.LevelShiftUp) {
			continue
		}
		// The feature must overlap the anomaly window.
		if ev.Start < c.AE && c.AS < ev.End {
			return true
		}
	}
	return false
}

func scaleFactorOr(v float64) float64 {
	if v <= 1 {
		return 2
	}
	return v
}
