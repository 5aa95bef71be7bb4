package fleet

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/logstore/segment"
	"pinsql/internal/obs"
	"pinsql/internal/parallel"
	"pinsql/internal/repair"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

// Options configures a fleet.
type Options struct {
	// Workers sizes the shared scheduler pool (0 = GOMAXPROCS). The
	// final report is byte-identical for every value (when no window is
	// shed).
	Workers int

	// QueueDepth bounds each instance's staged-window queue; when a
	// freshly simulated window arrives at a full queue, the oldest
	// queued window is shed — it loses its diagnosis (counted in the
	// shed metric) but its records still commit, so window numbering
	// and the durable topic stay contiguous. Default 8.
	QueueDepth int

	// DataDir enables durable per-instance stores under
	// DataDir/<instance>/ (a segment store of the raw records plus a
	// committed-window journal). "" keeps no raw log: a committed window's
	// records are dropped, and its report stays in memory.
	DataDir string

	// SyncEvery is the segment store's wal fsync policy (see
	// segment.Options.SyncEvery).
	SyncEvery int

	// Metrics receives the fleet's counters and gauges; nil creates a
	// private registry (reachable via Fleet.Metrics). When several fleets
	// share one registry (the shard manager), Labels keeps their series
	// apart.
	Metrics *obs.Registry

	// Labels is appended to every series this fleet registers — the shard
	// manager sets shard="k" so K shards can share one registry without
	// colliding (and without sharing a stage-summary mutex across shards).
	Labels []obs.Label

	// OnCommit, if set, is called after every committed window (from a
	// scheduler goroutine; keep it quick).
	OnCommit func(id string, rep *WindowReport)

	// CrashAt is the crash-injection test hook: returning true at a
	// commit phase ("pre-append", "mid-append", "pre-journal",
	// "post-journal") makes the fleet behave as if the process died
	// there — all work stops and no file is flushed or closed cleanly.
	// Exported so the shard package's kill/restart tests can reach it;
	// production code leaves it nil.
	CrashAt func(id string, window int, phase string) bool
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// stagedWindow is one simulated-but-not-yet-committed window.
type stagedWindow struct {
	window       int
	fromMs, toMs int64
	coll         *collect.Collector
	shed         bool
	// templates are those the window interned first, journaled with it.
	templates []collect.TemplateMeta

	rep *WindowReport
	// suggestions[i] belongs to rep.Anomalies[i]; executed at commit.
	suggestions [][]repair.Suggestion
}

// instState is the per-tenant state machine.
type instState struct {
	spec     InstanceSpec
	world    *workload.World // nil for trace-backed instances
	sim      *dbsim.Instance // nil for trace-backed instances
	play     *ingest.Player  // the instance's raw stream, window by window
	srcEOF   bool            // the source is exhausted; simulate no further
	registry *collect.Registry
	seg      *segment.Store // the raw log; nil without a DataDir

	reports []*WindowReport // committed windows, len(reports) == next to commit

	queue       []*stagedWindow
	nextSim     int // next window to simulate
	simActive   bool
	drainActive bool
	peakQueue   int
	err         error

	cWindows, cAnomalies, cShed, cRecords *obs.Counter
}

// Fleet monitors N instances concurrently. Create with New, launch with
// Start, block with Wait, shut down with Stop (graceful drain) or Close.
type Fleet struct {
	opt     Options
	diagCfg core.Config

	mu    sync.Mutex
	cond  *sync.Cond
	insts map[string]*instState
	ids   []string // sorted

	pool    *parallel.Pool
	mod     *repair.Module
	journal *journal // non-nil in durable mode: one group-committed file per fleet

	// stages are the fleet-wide per-stage wall-clock summaries exported on
	// /metrics as pinsql_stage_duration_seconds{stage=...}.
	stages struct {
		collect, detect, diagnose, commit *obs.Summary
	}
	// cEstimates counts the session estimates diagnosis computed — one per
	// anomalous window, however many phenomena it holds.
	cEstimates *obs.Counter

	started  bool
	draining bool
	dead     bool // crash hook fired: abandon all state, leave files as killed
	closed   bool
	closeErr error
}

// errCrashed is the internal sentinel of the crash-injection hook.
var errCrashed = errors.New("fleet: crash hook fired")

// New builds a fleet over the specs, opening (and in -data-dir mode
// recovering) every instance: the fleet journal is read once and split by
// instance, every durable topic is truncated back to its last journaled
// window boundary, the workload world is rebuilt by replaying injections
// and executed repair actions of every committed window, and monitoring
// resumes at the first uncommitted window.
func New(specs []InstanceSpec, opt Options) (*Fleet, error) {
	opt = opt.withDefaults()
	f := &Fleet{
		opt:   opt,
		insts: make(map[string]*instState, len(specs)),
		mod:   repair.New(repair.DefaultConfig(), repair.DefaultOptimizer()),
	}
	f.cond = sync.NewCond(&f.mu)
	f.diagCfg = core.DefaultConfig()
	// Sequential inner pipeline: the fleet's parallelism comes from
	// running instances concurrently, and inner workers on top of that
	// would oversubscribe the CPUs. Diagnosis output is identical for
	// every value.
	f.diagCfg.Workers = 1

	withDefaults := make([]InstanceSpec, 0, len(specs))
	windowMs := make(map[string]int64, len(specs))
	for _, spec := range specs {
		spec = spec.withDefaults()
		if spec.ID == "" {
			return nil, errors.New("fleet: instance spec without ID")
		}
		if _, dup := windowMs[spec.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate instance ID %q", spec.ID)
		}
		if url.PathEscape(spec.ID) == journalFile {
			return nil, fmt.Errorf("fleet: instance ID %q collides with the fleet journal file", spec.ID)
		}
		if spec.Trace != nil && spec.AutoRepair {
			return nil, fmt.Errorf("fleet: instance %s: AutoRepair requires a simulator-backed spec (a recorded trace has no live database to act on)", spec.ID)
		}
		windowMs[spec.ID] = int64(spec.WindowSec) * 1000
		withDefaults = append(withDefaults, spec)
	}

	var recovered map[string]history
	if opt.DataDir != "" {
		if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
			return nil, err
		}
		var err error
		f.journal, recovered, err = openJournal(filepath.Join(opt.DataDir, journalFile), windowMs)
		if err != nil {
			return nil, err
		}
	}

	for _, spec := range withDefaults {
		st, err := f.openInstance(spec, recovered[spec.ID])
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: instance %s: %w", spec.ID, err)
		}
		f.insts[spec.ID] = st
		f.ids = append(f.ids, spec.ID)
	}
	f.ids = sortedIDs(f.insts)
	f.registerMetrics()
	return f, nil
}

// journalFile is the fleet journal's name inside DataDir. One file per
// fleet — under the shard manager that is one independently recovering
// journal per shard.
const journalFile = "journal.jsonl"

// openInstance opens one instance's storage, adopts its committed history
// (recovered from the fleet journal: windows and templates), and rebuilds
// its world/simulator state.
func (f *Fleet) openInstance(spec InstanceSpec, hist history) (*instState, error) {
	registry, err := collect.RestoreRegistry(hist.templates)
	if err != nil {
		return nil, err
	}
	st := &instState{spec: spec, reports: hist.reports, registry: registry}
	windowMs := int64(spec.WindowSec) * 1000

	if f.opt.DataDir != "" {
		dir := filepath.Join(f.opt.DataDir, url.PathEscape(spec.ID))
		seg, err := segment.Open(dir, segment.Options{SyncEvery: f.opt.SyncEvery})
		if err != nil {
			return nil, err
		}
		st.seg = seg
		// Discard the partially committed suffix: everything at or after
		// the first unjournaled window boundary is replayed from scratch.
		seg.TruncateFrom(spec.ID, int64(len(st.reports))*windowMs)
	}

	if spec.Trace != nil {
		src, err := spec.Trace()
		if err != nil {
			st.closeStorage()
			return nil, err
		}
		st.play = ingest.NewPlayer(src)
	} else {
		world, cfg := spec.Setup(spec.Seed)
		st.world = world
		st.sim = dbsim.NewInstance(cfg)
		world.Apply(st.sim)

		// Replay committed history in window order: injections first (they
		// consume the world's RNG stream exactly as the original run did),
		// then that window's executed repairing actions, by the module that
		// executed them at commit.
		for _, rep := range st.reports {
			spec.Inject(world, rep.Window, rep.FromMs, rep.ToMs)
			var executed []repair.Suggestion
			for _, a := range rep.Anomalies {
				for _, act := range a.Actions {
					if act.Executed {
						executed = append(executed, repair.Suggestion{Rule: act.Rule, Action: act.Action,
							Template: sqltemplate.ID(act.Template), Value: act.Value, DurationMs: act.DurationMs})
					}
				}
			}
			f.mod.Execute(st.repairEnv(rep.ToMs, true), executed)
		}
		st.play = ingest.NewPlayer(ingest.NewSimSource(world, st.sim, spec.Seed, spec.Windows, spec.WindowSec))
	}
	st.nextSim = len(st.reports)
	// Resume the raw stream at the first uncommitted window boundary: the
	// simulator source seeks (windows re-derive from the seed, as pre-seam
	// recovery did), recorded traces skip their committed prefix.
	if st.nextSim > 0 {
		if err := st.play.SkipTo(int64(st.nextSim) * windowMs); err != nil {
			st.play.Close()
			st.closeStorage()
			return nil, err
		}
	}
	return st, nil
}

// repairEnv is the environment the instance's repairing actions execute in
// at nowMs. A trace-backed instance has no live simulator or world: the
// interfaces stay nil (not typed-nil), so Execute records the actions as
// suggestions without executing anything.
func (st *instState) repairEnv(nowMs int64, auto bool) repair.Environment {
	env := repair.Environment{AutoExecute: auto, NowMs: nowMs}
	if st.sim != nil {
		env.Throttler = st.sim
		env.Scaler = st.sim
	}
	if st.world != nil {
		env.SpecOf = func(tid sqltemplate.ID) repair.Optimizable {
			if sp := st.world.SpecByID(tid); sp != nil {
				return sp
			}
			return nil
		}
	}
	return env
}

// closeStorage releases an instance's storage handles on an openInstance
// error path (the instance never makes it into f.insts, so Close would
// miss it).
func (st *instState) closeStorage() {
	if st.seg != nil {
		st.seg.Close()
	}
}

// lbls appends the fleet's extra labels (e.g. the shard manager's
// shard="k") to a series' own labels.
func (f *Fleet) lbls(ls ...obs.Label) []obs.Label {
	return append(ls, f.opt.Labels...)
}

// registerMetrics wires the fleet's counters and callback series into the
// obs registry.
func (f *Fleet) registerMetrics() {
	m := f.opt.Metrics
	const stageHelp = "Wall-clock time spent per pipeline stage, fleet-wide."
	f.stages.collect = m.Summary("pinsql_stage_duration_seconds", stageHelp, f.lbls(obs.L("stage", "collect"))...)
	f.stages.detect = m.Summary("pinsql_stage_duration_seconds", stageHelp, f.lbls(obs.L("stage", "detect"))...)
	f.stages.diagnose = m.Summary("pinsql_stage_duration_seconds", stageHelp, f.lbls(obs.L("stage", "diagnose"))...)
	f.stages.commit = m.Summary("pinsql_stage_duration_seconds", stageHelp, f.lbls(obs.L("stage", "commit"))...)
	f.cEstimates = m.Counter("pinsql_session_estimates_total", "Individual active session estimates computed, fleet-wide.", f.lbls()...)
	for _, id := range f.ids {
		st := f.insts[id]
		lbl := obs.L("instance", id)
		st.cWindows = m.Counter("pinsql_fleet_windows_total", "Monitoring windows committed.", f.lbls(lbl)...)
		st.cAnomalies = m.Counter("pinsql_fleet_anomalies_total", "Anomaly phenomena diagnosed.", f.lbls(lbl)...)
		st.cShed = m.Counter("pinsql_fleet_shed_windows_total", "Windows whose diagnosis was shed under backpressure.", f.lbls(lbl)...)
		st.cRecords = m.Counter("pinsql_fleet_records_total", "Query-log records collected.", f.lbls(lbl)...)
		m.GaugeFunc("pinsql_fleet_queue_depth", "Staged windows awaiting diagnosis.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(st.queue))
		}, f.lbls(lbl)...)
		m.CounterFunc("pinsql_registry_raw_cache_hits_total", "Raw-SQL records whose template was resolved by fingerprint, without building its text.", func() float64 {
			h, _, _ := st.registry.RawCacheStats()
			return float64(h)
		}, f.lbls(lbl)...)
		m.CounterFunc("pinsql_registry_raw_cache_misses_total", "Raw-SQL fingerprints seen for the first time (template text built once each).", func() float64 {
			_, miss, _ := st.registry.RawCacheStats()
			return float64(miss)
		}, f.lbls(lbl)...)
		m.GaugeFunc("pinsql_registry_templates", "Templates in the instance's registry; it only grows.", func() float64 {
			return float64(st.registry.Len())
		}, f.lbls(lbl)...)
		m.CounterFunc("pinsql_ingest_records_total", "Trace records delivered into the monitoring pipeline.", func() float64 {
			return float64(st.play.Stats().Records)
		}, f.lbls(lbl)...)
		m.CounterFunc("pinsql_ingest_parse_errors_total", "Malformed trace inputs counted and skipped by the source chain.", func() float64 {
			return float64(st.play.Stats().ParseErrors)
		}, f.lbls(lbl)...)
		m.GaugeFunc("pinsql_ingest_lag_seconds", "Known trace end minus the replay playhead.", func() float64 {
			return st.play.Stats().LagSeconds
		}, f.lbls(lbl)...)
	}
}

// Metrics returns the fleet's obs registry (the one behind GET /metrics).
func (f *Fleet) Metrics() *obs.Registry { return f.opt.Metrics }

// Start launches the scheduler. Idempotent.
func (f *Fleet) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started || f.closed {
		return
	}
	f.started = true
	f.pool = parallel.NewPool(f.opt.Workers)
	for _, id := range f.ids {
		f.maybeScheduleSim(f.insts[id])
	}
}

// maybeScheduleSim submits the instance's next simulator window at high
// priority. Callers hold f.mu. At most one sim task per instance runs at
// a time (dbsim instances are not concurrency-safe); an auto-repairing
// instance additionally runs in lockstep with its commits, because
// repairs mutate the world the next window simulates.
// doneSimLocked reports whether the instance has no further windows to
// play: its window budget is exhausted, or its source hit end of trace.
// Callers hold f.mu.
func (st *instState) doneSimLocked() bool {
	if st.srcEOF {
		return true
	}
	return st.spec.Windows > 0 && st.nextSim >= st.spec.Windows
}

func (f *Fleet) maybeScheduleSim(st *instState) {
	if st.simActive || st.err != nil || f.draining || f.dead {
		return
	}
	if st.doneSimLocked() {
		return
	}
	if st.spec.AutoRepair && st.nextSim != len(st.reports) {
		return
	}
	st.simActive = true
	w := st.nextSim
	f.pool.Submit(func() { f.runSim(st, w) })
}

// maybeScheduleDrain submits a diagnosis/commit drain at low priority.
// Callers hold f.mu. One drain per instance at a time: windows commit
// strictly in order.
func (f *Fleet) maybeScheduleDrain(st *instState) {
	if st.drainActive || st.err != nil || f.dead || len(st.queue) == 0 {
		return
	}
	st.drainActive = true
	f.pool.SubmitLow(func() { f.runDrain(st) })
}

// caught turns a panic of the task it is deferred in into *err, with the
// stack: the instance fails loudly and its task still clears its flag, so
// Wait, Stop and Close return.
func caught(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
	}
}

// runSim plays window w and stages its output, shedding the oldest
// queued window when the queue is full — the player is never blocked on
// diagnosis.
func (f *Fleet) runSim(st *instState, w int) {
	start := time.Now()
	sw, more, err := func() (sw *stagedWindow, more bool, err error) {
		defer caught(&err)
		return f.simWindow(st, w)
	}()
	f.stages.collect.Observe(time.Since(start).Seconds())
	f.mu.Lock()
	defer f.mu.Unlock()
	st.simActive = false
	defer f.cond.Broadcast()
	if f.dead {
		return
	}
	if err == io.EOF {
		// The trace ended before this window's first second: nothing to
		// stage, the instance is done simulating.
		st.srcEOF = true
		return
	}
	if err != nil {
		st.err = err
		return
	}
	if !more {
		st.srcEOF = true
	}
	st.nextSim = w + 1
	if len(st.queue) >= f.opt.QueueDepth {
		for _, q := range st.queue {
			if !q.shed {
				q.shed = true
				st.cShed.Inc()
				break
			}
		}
	}
	st.queue = append(st.queue, sw)
	if len(st.queue) > st.peakQueue {
		st.peakQueue = len(st.queue)
	}
	f.maybeScheduleDrain(st)
	f.maybeScheduleSim(st)
}

// simWindow runs the collect/aggregate stage of one window: the player
// hands the instance's source (the simulator or a recorded trace) to the
// window's collector, one trace second per call; the collector holds the
// window's only copy of its records and nothing durable happens here.
// Delivery is synchronous, so no record can be dropped and a source may
// reuse its batch buffer. It returns io.EOF when the trace was exhausted
// before this window's first second.
func (f *Fleet) simWindow(st *instState, w int) (*stagedWindow, bool, error) {
	spec := st.spec
	windowMs := int64(spec.WindowSec) * 1000
	fromMs := int64(w) * windowMs
	toMs := fromMs + windowMs

	injected := ""
	if st.world != nil {
		injected = spec.Inject(st.world, w, fromMs, toMs)
	}

	known := st.registry.Len()
	coll := collect.NewCollector(spec.ID, fromMs, toMs, st.registry, nil)
	rows, more, err := st.play.PlayWindowBatches(fromMs, toMs, coll.IngestBatch)
	if err != nil {
		return nil, more, err
	}
	coll.IngestMetricsAt(rows)

	var sess, cpu float64
	for _, s := range rows {
		sess += s.ActiveSession
		cpu += s.CPUUsage
	}
	if n := len(rows); n > 0 {
		sess /= float64(n)
		cpu /= float64(n)
	}
	return &stagedWindow{
		window: w, fromMs: fromMs, toMs: toMs,
		coll:      coll,
		templates: st.registry.Since(known),
		rep: &WindowReport{
			Window: w, FromMs: fromMs, ToMs: toMs,
			Injected:    injected,
			Records:     coll.Records(),
			MeanSession: sess,
			MeanCPU:     cpu,
		},
	}, more, nil
}

// runDrain pops the instance's oldest staged window, diagnoses it (unless
// shed), and commits it.
func (f *Fleet) runDrain(st *instState) {
	f.mu.Lock()
	if f.dead || len(st.queue) == 0 {
		st.drainActive = false
		f.cond.Broadcast()
		f.mu.Unlock()
		return
	}
	sw := st.queue[0]
	st.queue[0] = nil // the backing array must not keep a committed window
	st.queue = st.queue[1:]
	f.mu.Unlock()

	err := func() (err error) {
		defer caught(&err)
		if sw.shed {
			sw.rep.Shed = true
		} else {
			f.diagnose(sw)
		}
		start := time.Now()
		err = f.commit(st, sw)
		f.stages.commit.Observe(time.Since(start).Seconds())
		return err
	}()

	f.mu.Lock()
	st.drainActive = false
	switch {
	case errors.Is(err, errCrashed):
		f.dead = true
	case err != nil:
		st.err = err
	default:
		st.reports = append(st.reports, sw.rep)
		st.cWindows.Inc()
		st.cAnomalies.Add(int64(len(sw.rep.Anomalies)))
		st.cRecords.Add(sw.rep.Records)
		f.maybeScheduleDrain(st)
		f.maybeScheduleSim(st)
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	if err == nil && f.opt.OnCommit != nil {
		f.opt.OnCommit(st.spec.ID, sw.rep)
	}
}

// diagnose runs detection on the collector's live series and, per
// phenomenon, the full diagnosis pipeline plus repair suggestions for the
// top R-SQL. Only a window with a phenomenon is sealed: its diagnoses
// consume the frame directly — no log store is scanned — and share one
// core.FrameDiagnoser, so sessions are estimated once per window; ranking
// and clustering depend on the anomaly interval and run per phenomenon.
func (f *Fleet) diagnose(sw *stagedWindow) {
	start := time.Now()
	phenomena := anomaly.DetectDefault(sw.coll.Watched())
	f.stages.detect.Observe(time.Since(start).Seconds())
	start = time.Now()
	defer func() { f.stages.diagnose.Observe(time.Since(start).Seconds()) }()
	if len(phenomena) == 0 {
		return
	}
	fr := sw.coll.Frame()
	baseSec := int(sw.fromMs / 1000)
	fd := core.NewFrameDiagnoser(fr, f.diagCfg)
	for _, ph := range phenomena {
		c := anomaly.NewCase(fr, ph)
		d := fd.Diagnose(c)
		ar := AnomalyReport{Rule: ph.Rule, StartSec: baseSec + ph.Start, EndSec: baseSec + ph.End}
		for i, cand := range d.RSQLs {
			if i == 3 {
				break
			}
			ar.RSQLs = append(ar.RSQLs, RSQLReport{ID: string(cand.ID), Score: cand.Score, Verified: cand.Verified})
		}
		var sugg []repair.Suggestion
		if len(d.RSQLs) > 0 {
			sugg = f.mod.Suggest(c, []sqltemplate.ID{d.RSQLs[0].ID})
		}
		sw.rep.Anomalies = append(sw.rep.Anomalies, ar)
		sw.suggestions = append(sw.suggestions, sugg)
	}
	f.cEstimates.Add(int64(fd.Estimates()))
}

// crash consults the crash-injection hook.
func (f *Fleet) crash(id string, window int, phase string) bool {
	return f.opt.CrashAt != nil && f.opt.CrashAt(id, window, phase)
}

// commit makes one window durable and applies its repairs, strictly in
// window order per instance:
//
//  1. with a DataDir, the collector arranges the window's records in
//     arrival order, here and only here, and hands them over (strict
//     appends, given up) to the instance's segment store; without one
//     they are dropped unarranged;
//  2. repairing actions execute (when AutoRepair) against the live
//     world/simulator and are recorded with their Executed flags;
//  3. the window is journaled (fsync), with the templates it interned
//     first — this is the commit point a restart counts, for records and
//     templates alike;
//  4. the segment store expires past-TTL records.
//
// A crash anywhere before (3) leaves an unjournaled suffix in the topic
// that recovery truncates and replays; a crash after (3) loses nothing. A
// disk error refuses the append in (1), failing the instance before (3).
func (f *Fleet) commit(st *instState, sw *stagedWindow) error {
	id := st.spec.ID
	if f.crash(id, sw.window, "pre-append") {
		return errCrashed
	}
	if st.seg != nil {
		if recs := sw.coll.TakeArranged(); len(recs) > 0 {
			// The mid-append crash point sits between the window's first
			// record and the rest: append that one alone.
			if _, err := st.seg.AppendBatch(id, recs[:1]); err != nil {
				return err
			}
			if f.crash(id, sw.window, "mid-append") {
				return errCrashed
			}
			if _, err := st.seg.AppendBatch(id, recs[1:]); err != nil {
				return err
			}
		}
	}
	sw.coll.Release()

	if !sw.shed {
		for i := range sw.rep.Anomalies {
			sugg := sw.suggestions[i]
			if len(sugg) == 0 {
				continue
			}
			for _, s := range f.mod.Execute(st.repairEnv(sw.toMs, st.spec.AutoRepair), sugg) {
				sw.rep.Anomalies[i].Actions = append(sw.rep.Anomalies[i].Actions, ActionReport{
					Rule: s.Rule, Action: s.Action, Template: string(s.Template),
					Value: s.Value, DurationMs: s.DurationMs, Executed: s.Executed,
				})
			}
		}
	}

	if f.crash(id, sw.window, "pre-journal") {
		return errCrashed
	}
	if f.journal != nil {
		if err := f.journal.Append(id, sw.rep, sw.templates); err != nil {
			return err
		}
	}
	if f.crash(id, sw.window, "post-journal") {
		return errCrashed
	}
	if st.seg != nil {
		st.seg.Expire(sw.toMs)
	}
	return nil
}

// settledLocked reports whether no further work can happen: every healthy
// instance has drained its queue and — unless the fleet is draining —
// simulated and committed every target window.
func (f *Fleet) settledLocked() bool {
	for _, st := range f.insts {
		if st.err != nil {
			continue
		}
		if st.simActive || st.drainActive || len(st.queue) > 0 {
			return false
		}
		if !f.draining && !st.doneSimLocked() {
			return false
		}
	}
	return true
}

// Wait blocks until every instance has finished (or the fleet is draining
// and the queues emptied, or the crash hook fired) and returns the first
// instance error in ID order.
func (f *Fleet) Wait() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.started {
		return nil
	}
	for !f.dead && !f.settledLocked() {
		f.cond.Wait()
	}
	for _, id := range f.ids {
		if err := f.insts[id].err; err != nil {
			return fmt.Errorf("instance %s: %w", id, err)
		}
	}
	return nil
}

// Stop is the graceful drain: no new windows are simulated, every queued
// window is still diagnosed and committed, and the durable topics are
// sealed and closed. Safe to call at any time, including after Wait.
func (f *Fleet) Stop() error {
	f.mu.Lock()
	f.draining = true
	// Pending drains finish on their own; the broadcast lets a concurrent
	// Wait re-evaluate under the drain flag.
	f.cond.Broadcast()
	f.mu.Unlock()
	return f.Close()
}

// Close waits for the fleet to settle, shuts the scheduler down, seals
// every durable topic (so restart recovery starts from sealed segments),
// and closes all files. After a simulated crash nothing is sealed,
// flushed, or closed — files stay exactly as the "kill" left them.
func (f *Fleet) Close() error {
	f.Wait()
	f.mu.Lock()
	if f.closed {
		err := f.closeErr
		f.mu.Unlock()
		return err
	}
	f.closed = true
	dead := f.dead
	f.mu.Unlock()

	if f.pool != nil {
		f.pool.Close()
	}
	var first error
	for _, id := range f.ids {
		st := f.insts[id]
		if dead {
			continue
		}
		if st.play != nil {
			if err := st.play.Close(); err != nil && first == nil {
				first = err
			}
		}
		if st.seg != nil {
			if err := st.seg.Seal(); err != nil && first == nil {
				first = err
			}
			if err := st.seg.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	// After a simulated crash the journal is abandoned exactly as a kill
	// would leave it: whatever the OS has is what recovery sees.
	if f.journal != nil && !dead {
		if err := f.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.mu.Lock()
	f.closeErr = first
	f.mu.Unlock()
	return first
}

// JournalStats reports the fleet journal's group-commit accounting: total
// fsynced batches and the windows they covered. Zero without a DataDir.
func (f *Fleet) JournalStats() (batches, windows int64) {
	if f.journal == nil {
		return 0, 0
	}
	return f.journal.Stats()
}

// IDs returns the fleet's instance IDs in sorted order.
func (f *Fleet) IDs() []string {
	out := make([]string, len(f.ids))
	copy(out, f.ids)
	return out
}

// Report renders every instance's committed windows, instances in ID
// order — the determinism contract's observable artifact.
func (f *Fleet) Report() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	for _, id := range f.ids {
		FormatInstanceReport(&b, id, f.insts[id].reports)
	}
	return b.String()
}

// Diagnoses returns a copy of one instance's committed window reports; ok
// is false for an unknown instance.
func (f *Fleet) Diagnoses(id string) ([]*WindowReport, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.insts[id]
	if !ok {
		return nil, false
	}
	out := make([]*WindowReport, len(st.reports))
	copy(out, st.reports)
	return out, true
}

// Reports returns a copy of every instance's committed window reports,
// keyed by instance ID — the fleet's report fragment. One call hands a
// coordinator everything Report would render, so a worker process serves
// its whole shard in a single round trip instead of one call per instance.
func (f *Fleet) Reports() map[string][]*WindowReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]*WindowReport, len(f.ids))
	for _, id := range f.ids {
		st := f.insts[id]
		reps := make([]*WindowReport, len(st.reports))
		copy(reps, st.reports)
		out[id] = reps
	}
	return out
}

// InstanceStatus is one row of GET /fleet.
type InstanceStatus struct {
	ID         string `json:"id"`
	Windows    int    `json:"windows"`
	Committed  int    `json:"committed"`
	Simulated  int    `json:"simulated"`
	QueueDepth int    `json:"queue_depth"`
	PeakQueue  int    `json:"peak_queue"`
	Shed       int64  `json:"shed"`
	Anomalies  int    `json:"anomalies"`
	Records    int64  `json:"records"`
	Dropped    int64  `json:"dropped"` // always 0: delivery is synchronous
	AutoRepair bool   `json:"auto_repair,omitempty"`
	Done       bool   `json:"done"`
	Error      string `json:"error,omitempty"`
}

// Status is the GET /fleet document.
type Status struct {
	Workers   int              `json:"workers"`
	Draining  bool             `json:"draining"`
	Done      bool             `json:"done"`
	Committed int              `json:"committed"`
	Anomalies int              `json:"anomalies"`
	Shed      int64            `json:"shed"`
	Instances []InstanceStatus `json:"instances"`
}

// Status snapshots the fleet's progress.
func (f *Fleet) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := Status{
		Workers:  parallel.Resolve(f.opt.Workers),
		Draining: f.draining,
		Done:     f.settledLocked() && f.started,
	}
	for _, id := range f.ids {
		st := f.insts[id]
		is := InstanceStatus{
			ID:         id,
			Windows:    st.spec.Windows,
			Committed:  len(st.reports),
			Simulated:  st.nextSim,
			QueueDepth: len(st.queue),
			PeakQueue:  st.peakQueue,
			Shed:       st.cShed.Value(),
			Records:    st.cRecords.Value(),
			AutoRepair: st.spec.AutoRepair,
			Done:       st.doneSimLocked() && len(st.reports) == st.nextSim,
		}
		for _, rep := range st.reports {
			is.Anomalies += len(rep.Anomalies)
		}
		if st.err != nil {
			is.Error = st.err.Error()
		}
		out.Committed += is.Committed
		out.Anomalies += is.Anomalies
		out.Shed += is.Shed
		out.Instances = append(out.Instances, is)
	}
	return out
}
