package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/rank"
	"pinsql/internal/repair"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/window"
	"pinsql/internal/workload"
)

// Fig8Event marks one timeline event of the repair case study.
type Fig8Event struct {
	Sec   int
	Label string
}

// Fig8 reproduces the real-world repair case (§VIII-E): an anomaly appears,
// the user manually throttles the Top-RT statement (partial relief),
// removes the throttle (anomaly returns), then enables PinSQL, which
// pinpoints the true R-SQL and repairs it for good.
type Fig8 struct {
	ActiveSession []float64
	CPUUsage      []float64
	IOPSUsage     []float64
	Events        []Fig8Event

	ThrottledTemplate sqltemplate.ID   // the user's manual Top-RT pick
	PinpointedRSQL    sqltemplate.ID   // PinSQL's top diagnosis
	TrueRSQLs         []sqltemplate.ID // ground truth (the job's write statements)
}

// PinpointedCorrect reports whether the top diagnosis is one of the
// injected write statements.
func (f *Fig8) PinpointedCorrect() bool {
	for _, id := range f.TrueRSQLs {
		if id == f.PinpointedRSQL {
			return true
		}
	}
	return false
}

// fig8 phase boundaries in seconds.
const (
	fig8AnomalyStart  = 600
	fig8ManualAction  = 1500
	fig8ThrottleOff   = 2100
	fig8PinSQLEnabled = 2700
	fig8End           = 3600
)

// RunFig8 executes the scripted scenario on one live instance. The anomaly
// is a persistent lock storm, so throttling the most-visible (blocked)
// statement cannot fix it — only acting on the pinpointed UPDATE does.
func RunFig8(seed int64) (*Fig8, error) {
	world := workload.DefaultWorld(seed)
	// The storm job lives in the fulfillment service, whose locking reads
	// on the hot order rows become the visible victims.
	storm := world.InjectLockStorm(world.Services[2], "orders", 7, fig8AnomalyStart*1000, fig8End*1000)

	cfg := dbsim.DefaultConfig()
	cfg.Seed = seed + 1
	inst := dbsim.NewInstance(cfg)
	world.Apply(inst)

	out := &Fig8{TrueRSQLs: storm.RSQLs}
	coll := collect.NewCollector("fig8", 0, fig8End*1000, nil, nil)
	// early is the window the user acts on in phase 2: what was collected
	// before the manual action.
	early := collect.NewCollector("fig8", 0, fig8ManualAction*1000, nil, nil)

	// runPhase advances the world on the same instance over [from, to)
	// seconds, feeding its records and metrics — the simulator's rows are
	// 0-based per run — to the given collectors.
	runPhase := func(from, to int, colls ...*collect.Collector) error {
		secs, err := inst.Run(dbsim.RunOptions{
			StartMs: int64(from) * 1000,
			EndMs:   int64(to) * 1000,
			Source:  world.Source(int64(from)*1000, int64(to)*1000, seed+int64(from)),
			Sink: func(r dbsim.LogRecord) {
				for _, c := range colls {
					c.Ingest(r)
				}
			},
		})
		if err != nil {
			return err
		}
		for i, s := range secs {
			secs[i].Second += int64(from)
			out.ActiveSession = append(out.ActiveSession, s.ActiveSession)
			out.CPUUsage = append(out.CPUUsage, s.CPUUsage)
			out.IOPSUsage = append(out.IOPSUsage, s.IOPSUsage)
		}
		for _, c := range colls {
			c.IngestMetricsAt(secs)
		}
		return nil
	}

	// Phase 1: healthy baseline, then the anomaly begins and persists.
	if err := runPhase(0, fig8ManualAction, coll, early); err != nil {
		return nil, err
	}
	out.Events = append(out.Events,
		Fig8Event{fig8AnomalyStart, "anomaly begins (lock storm)"},
		Fig8Event{fig8ManualAction, "user throttles Top-RT SQL"})

	// Phase 2: the user throttles the Top-RT statement — which, because
	// lock-wait time inflates response time, is a blocked victim, not the
	// root cause.
	topRT := rank.TopSQL(early.Frame(), fig8AnomalyStart, fig8ManualAction, rank.MethodTopRT)
	out.ThrottledTemplate = topRT[0]
	inst.SetThrottle(string(out.ThrottledTemplate), 2)
	if err := runPhase(fig8ManualAction, fig8ThrottleOff, coll); err != nil {
		return nil, err
	}

	// Phase 3: throttling hurt the business, the user switches it off;
	// the anomaly phenomenon reappears.
	out.Events = append(out.Events, Fig8Event{fig8ThrottleOff, "user removes throttle; anomaly returns"})
	inst.ClearThrottle(string(out.ThrottledTemplate))
	if err := runPhase(fig8ThrottleOff, fig8PinSQLEnabled, coll); err != nil {
		return nil, err
	}

	// Phase 4: the user enables PinSQL: detect, diagnose, repair.
	out.Events = append(out.Events, Fig8Event{fig8PinSQLEnabled, "PinSQL enabled: diagnose + repair R-SQL"})
	fr := coll.Frame()
	c := anomaly.NewCase(fr, fig8Phenomenon(fr))
	d := core.DiagnoseFrame(c, fr, core.DefaultConfig())
	if len(d.RSQLs) > 0 {
		out.PinpointedRSQL = d.RSQLs[0].ID
	}

	// Repair the head of the R-SQL ranking (the job split its writes
	// across statements; acting on the top one alone leaves half the
	// storm running).
	top := d.RSQLIDs()
	if len(top) > 3 {
		top = top[:3]
	}
	mod := repair.New(repair.DefaultConfig(), repair.DefaultOptimizer())
	sugg := mod.Suggest(c, top)
	env := repair.Environment{
		Throttler: inst,
		Scaler:    inst,
		SpecOf: func(id sqltemplate.ID) repair.Optimizable {
			if spec := world.SpecByID(id); spec != nil {
				return spec
			}
			return nil
		},
		AutoExecute: true,
	}
	mod.Execute(env, sugg)

	// Phase 5: recovery, past the diagnosed window.
	if err := runPhase(fig8PinSQLEnabled, fig8End); err != nil {
		return nil, err
	}
	out.Events = append(out.Events, Fig8Event{fig8End, "metrics back to normal"})
	return out, nil
}

// fig8Phenomenon detects the dominant phenomenon overlapping the anomaly,
// falling back to the known window if the detector misses.
func fig8Phenomenon(f *window.Frame) anomaly.Phenomenon {
	best := anomaly.Phenomenon{
		Rule:  "fallback",
		Start: fig8AnomalyStart,
		End:   fig8PinSQLEnabled,
		Events: []anomaly.Event{{
			Metric:  anomaly.MetricActiveSession,
			Feature: anomaly.SpikeUp,
			Start:   fig8AnomalyStart,
			End:     fig8PinSQLEnabled,
		}},
	}
	bestDur := 0
	for _, p := range anomaly.DetectDefault(f.ActiveSession, f.CPUUsage, f.IOPSUsage) {
		if p.End > fig8AnomalyStart && p.Duration() > bestDur {
			best = p
			bestDur = p.Duration()
		}
	}
	return best
}

// Format renders the timeline summary.
func (f *Fig8) Format() string {
	var b strings.Builder
	b.WriteString("Fig. 8: real-world repair case study (lock storm)\n")
	for _, ev := range f.Events {
		fmt.Fprintf(&b, "  t=%4ds  %s\n", ev.Sec, ev.Label)
	}
	fmt.Fprintf(&b, "  manual Top-RT throttle target: %s (a blocked victim)\n", f.ThrottledTemplate)
	fmt.Fprintf(&b, "  PinSQL pinpointed R-SQL:       %s (truth: %v)\n", f.PinpointedRSQL, f.TrueRSQLs)
	phases := []struct {
		label    string
		from, to int
	}{
		{"baseline", 0, fig8AnomalyStart},
		{"anomaly", fig8AnomalyStart, fig8ManualAction},
		{"manual throttle", fig8ManualAction, fig8ThrottleOff},
		{"throttle off", fig8ThrottleOff, fig8PinSQLEnabled},
		{"after PinSQL repair", fig8PinSQLEnabled, fig8End},
	}
	for _, p := range phases {
		fmt.Fprintf(&b, "  %-20s mean active session %7.2f  cpu %5.1f%%\n",
			p.label, meanOf(f.ActiveSession, p.from, p.to), meanOf(f.CPUUsage, p.from, p.to))
	}
	return b.String()
}

func meanOf(s []float64, from, to int) float64 {
	if to > len(s) {
		to = len(s)
	}
	if from >= to {
		return 0
	}
	var sum float64
	for _, v := range s[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}
