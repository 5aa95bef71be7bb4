package pinsql

import (
	"fmt"
	"sort"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/rank"
	"pinsql/internal/repair"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
	"pinsql/internal/workload"
)

// Re-exported types: the library's public vocabulary.
type (
	// Series is a fixed-interval time series (Definition II.1).
	Series = timeseries.Series
	// TemplateID identifies a SQL template (Definition II.3).
	TemplateID = sqltemplate.ID
	// Template is a normalized SQL statement with its digest.
	Template = sqltemplate.Template
	// Frame is one collection window — per-template series, observation
	// columns and metrics — in the columnar form every stage consumes
	// (internal/window).
	Frame = window.Frame
	// Collector aggregates query logs and metrics (§IV-A).
	Collector = collect.Collector
	// Case is an anomaly case C = (M, Q, as, ae) (Definition II.2).
	Case = anomaly.Case
	// Phenomenon is a recognized anomalous phenomenon (§IV-B).
	Phenomenon = anomaly.Phenomenon
	// Config is the diagnosis pipeline configuration with the paper's
	// defaults and the Fig. 6 ablation switches.
	Config = core.Config
	// Diagnosis is the pipeline output: ranked H-SQLs and R-SQLs.
	Diagnosis = core.Diagnosis
	// Instance is the simulated cloud database instance.
	Instance = dbsim.Instance
	// InstanceConfig configures a simulated instance.
	InstanceConfig = dbsim.Config
	// World is a synthetic microservice workload with anomaly injectors.
	World = workload.World
	// Suggestion is one recommended repairing action (§VII).
	Suggestion = repair.Suggestion
	// RepairEnvironment wires repair actions to their actuators.
	RepairEnvironment = repair.Environment
	// RepairConfig is the Fig. 5-style rule set.
	RepairConfig = repair.Config
)

// NewTemplate normalizes a raw SQL statement into its template.
func NewTemplate(sql string) Template { return sqltemplate.New(sql) }

// DefaultConfig returns the paper's default pipeline parameters
// (δs = 30 min, K = 10, ks = 30, τ = 0.8, Kc = 5, τc = 0.95).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDemoWorld builds the standard synthetic workload used by the examples
// and the benchmark harness.
func NewDemoWorld(seed int64) *World { return workload.DefaultWorld(seed) }

// SimOptions configures Simulate.
type SimOptions struct {
	DurationSec int   // simulated window length; default 1800
	Seed        int64 // arrival randomness
	Cores       int   // instance cores; default 16
	Topic       string
}

// Run is a completed monitoring window over one simulated instance: the
// collector holds the aggregated data, Instance stays live for repair
// actions (throttling, autoscale) and re-runs.
type Run struct {
	World     *World
	Instance  *Instance
	Collector *Collector
	cfg       Config
}

// Simulate runs a world on a fresh simulated instance with the collection
// pipeline attached and returns the completed Run.
func Simulate(w *World, opt SimOptions) (*Run, error) {
	if opt.DurationSec <= 0 {
		opt.DurationSec = 1800
	}
	if opt.Topic == "" {
		opt.Topic = "demo-instance"
	}
	cfg := dbsim.DefaultConfig()
	if opt.Cores > 0 {
		cfg.Cores = opt.Cores
	}
	cfg.Seed = opt.Seed + 1
	inst := dbsim.NewInstance(cfg)
	w.Apply(inst)

	endMs := int64(opt.DurationSec) * 1000
	coll := collect.NewCollector(opt.Topic, 0, endMs, nil, nil)
	secs, err := inst.Run(dbsim.RunOptions{
		StartMs: 0,
		EndMs:   endMs,
		Source:  w.Source(0, endMs, opt.Seed+2),
		Sink:    coll.Sink(),
	})
	if err != nil {
		return nil, fmt.Errorf("pinsql: simulation failed: %w", err)
	}
	coll.IngestMetricsAt(secs)
	return &Run{
		World:     w,
		Instance:  inst,
		Collector: coll,
		cfg:       DefaultConfig(),
	}, nil
}

// SetConfig overrides the diagnosis configuration for this run.
func (r *Run) SetConfig(cfg Config) { r.cfg = cfg }

// DetectCases runs the anomaly detector over the run's metrics with the
// production-default rules (active session, CPU usage, IOPS usage) and
// returns one Case per recognized phenomenon. Cases are ordered for
// triage: active-session phenomena first (the paper's headline metric,
// §II), then by duration.
func (r *Run) DetectCases() []*Case {
	var out []*Case
	f := r.Frame()
	for _, p := range anomaly.DetectDefault(f.ActiveSession, f.CPUUsage, f.IOPSUsage) {
		out = append(out, anomaly.NewCase(f, p))
	}
	sort.SliceStable(out, func(i, j int) bool {
		si := out[i].Phenomenon.Rule == "active_session_anomaly"
		sj := out[j].Phenomenon.Rule == "active_session_anomaly"
		if si != sj {
			return si
		}
		return out[i].Phenomenon.Duration() > out[j].Phenomenon.Duration()
	})
	return out
}

// Frame returns the run window's frame: the collector's seal, made on the
// first call.
func (r *Run) Frame() *window.Frame {
	return r.Collector.Frame()
}

// Diagnose runs the full PinSQL pipeline on a case detected on the run
// window's frame.
func (r *Run) Diagnose(c *Case) *Diagnosis {
	return core.DiagnoseFrame(c, r.Frame(), r.cfg)
}

// Repair suggests (and, when auto is true, executes against the run's
// instance and world) repairing actions for the diagnosis' top R-SQLs.
func (r *Run) Repair(c *Case, d *Diagnosis, auto bool) []Suggestion {
	mod := repair.New(repair.DefaultConfig(), repair.DefaultOptimizer())
	top := d.RSQLIDs()
	if len(top) > 3 {
		top = top[:3]
	}
	sugg := mod.Suggest(c, top)
	env := RepairEnvironment{
		Throttler: r.Instance,
		Scaler:    r.Instance,
		SpecOf: func(id TemplateID) repair.Optimizable {
			if spec := r.World.SpecByID(id); spec != nil {
				return spec
			}
			return nil
		},
		AutoExecute: auto,
	}
	return mod.Execute(env, sugg)
}

// TopSQL ranks the frame's templates over [as, ae) with one of the
// Table I baseline methods: "Top-RT", "Top-ER" or "Top-EN".
func TopSQL(f *Frame, as, ae int, method string) ([]TemplateID, error) {
	switch rank.Method(method) {
	case rank.MethodTopRT, rank.MethodTopER, rank.MethodTopEN:
		return rank.TopSQL(f, as, ae, rank.Method(method)), nil
	}
	return nil, fmt.Errorf("pinsql: unknown Top-SQL method %q", method)
}
