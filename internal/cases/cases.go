// Package cases generates the evaluation corpus — the stand-in for the
// paper's ADAC dataset (§VIII-A): anomaly cases sampled from simulated
// database instances running microservice workloads, with ground-truth
// R-SQL and H-SQL labels.
//
// Each case is produced end-to-end through the real pipeline: a workload
// world is built, one anomaly family is injected, the instance simulation
// runs, the collector aggregates the query log, and the anomaly detector
// finds the phenomenon. Ground truth mirrors the paper's DBA labeling:
// R-SQLs are the injected statements (the DBA knows the true cause);
// H-SQLs are the templates whose true per-template active session visibly
// lifted during the anomaly window (the DBA reads the monitoring data).
package cases

import (
	"fmt"
	"math"
	"sort"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/dbsim"
	"pinsql/internal/parallel"
	"pinsql/internal/session"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/workload"
)

// Labeled is one evaluation case with its ground truth.
type Labeled struct {
	Name string
	Kind workload.AnomalyKind

	Case      *anomaly.Case
	Collector *collect.Collector
	World     *workload.World
	Injected  workload.Anomaly

	RSQLs map[sqltemplate.ID]bool
	HSQLs map[sqltemplate.ID]bool

	// Detected reports whether the anomaly detector found the phenomenon
	// on its own; when false, the injected window was used as a fallback
	// (counted as a detection miss by the harness).
	Detected bool
}

// TruthIDs returns the case's ground-truth R-SQL and H-SQL template IDs,
// each list sorted: the label sets are maps, and whatever renders them — a
// case document's truth section, a repro manifest — must not leak map
// iteration order into its bytes.
func (l *Labeled) TruthIDs() (rsqls, hsqls []string) {
	sorted := func(set map[sqltemplate.ID]bool) []string {
		out := make([]string, 0, len(set))
		for id := range set {
			out = append(out, string(id))
		}
		sort.Strings(out)
		return out
	}
	return sorted(l.RSQLs), sorted(l.HSQLs)
}

// Options configures corpus generation.
type Options struct {
	Seed  int64
	Count int // number of cases (families rotate round-robin)

	// TraceSec is the collected window length [ts, te); the paper uses
	// δs = 30 min of pre-anomaly data plus the anomaly itself.
	TraceSec int
	// AnomalyStartSec / durations bound the injected window.
	AnomalyStartSec  int
	AnomalyMinDurSec int
	AnomalyMaxDurSec int

	// FillerServices × FillerSpecs extra low-traffic templates pad the
	// template count toward production-like cardinality.
	FillerServices int
	FillerSpecs    int

	// HistoryDays are the Nd offsets of history windows (paper: 1/3/7).
	HistoryDays []int

	Cores int // instance cores; 0 → default

	// Workers bounds how many cases generate concurrently: 1 is the exact
	// sequential path, 0 or negative means use every core
	// (parallel.Resolve). Each case owns its seed, world, instance and
	// collector, so generation order cannot leak into case content; Stream
	// re-delivers in case order regardless, making the corpus — and every
	// report built from it — bit-identical for all Workers values.
	Workers int
}

// DefaultOptions returns the standard corpus configuration: 2400 s traces
// (a 30+ min diagnosis window), anomalies of 4–8 minutes starting around
// t = 1500 s, a modest filler population, and 1/3/7-day history.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		Count:            20,
		TraceSec:         2400,
		AnomalyStartSec:  1500,
		AnomalyMinDurSec: 240,
		AnomalyMaxDurSec: 480,
		FillerServices:   6,
		FillerSpecs:      10,
		HistoryDays:      []int{1, 3, 7},
	}
}

// Stream generates Count cases and hands each to fn in case order,
// releasing it afterwards. Generation fans out over opt.Workers goroutines
// (each case is self-contained), but fn always runs on the calling
// goroutine, in order, with at most Workers+1 cases alive at once — memory
// stays bounded: a full corpus of multi-thousand-second traces does not
// fit comfortably in RAM.
func Stream(opt Options, fn func(*Labeled) error) error {
	if opt.Count <= 0 {
		return nil
	}
	kinds := []workload.AnomalyKind{
		workload.KindBusinessSpike,
		workload.KindPoorSQL,
		workload.KindLockStorm,
		workload.KindMDL,
	}
	return parallel.OrderedStream(opt.Workers, opt.Count,
		func(i int) (*Labeled, error) {
			kind := kinds[i%len(kinds)]
			c, err := GenerateOne(opt, int64(i), kind)
			if err != nil {
				return nil, fmt.Errorf("case %d (%s): %w", i, kind, err)
			}
			return c, nil
		},
		func(i int, c *Labeled) error { return fn(c) })
}

// GenerateOne builds the idx-th case of the given anomaly family.
func GenerateOne(opt Options, idx int64, kind workload.AnomalyKind) (*Labeled, error) {
	return GenerateOneWith(opt, idx, kind, nil)
}

// GenerateOneWith is GenerateOne with a hook invoked on the world after the
// anomaly is injected and before the simulation runs. The Table II harness
// uses it to replay a case with one statement optimized; everything else
// (world structure, injection parameters, arrival noise, SHOW STATUS
// offsets) stays bit-identical.
func GenerateOneWith(opt Options, idx int64, kind workload.AnomalyKind, mutate func(*workload.World)) (*Labeled, error) {
	if opt.TraceSec <= 0 {
		opt = withDefaults(opt)
	}
	seed := opt.Seed*1_000_003 + idx*7919
	world := workload.DefaultWorld(seed)
	if opt.FillerServices > 0 {
		world.AddFillerServices(opt.FillerServices, opt.FillerSpecs)
	}

	// Injection parameters, mildly randomized per case.
	r := newSplitMix(uint64(seed))
	dur := opt.AnomalyMinDurSec
	if opt.AnomalyMaxDurSec > opt.AnomalyMinDurSec {
		dur += int(r.next() % uint64(opt.AnomalyMaxDurSec-opt.AnomalyMinDurSec))
	}
	asMs := int64(opt.AnomalyStartSec+int(r.next()%180)) * 1000
	aeMs := asMs + int64(dur)*1000
	endMs := int64(opt.TraceSec) * 1000

	svcIdx := int(r.next() % 6)
	injected := inject(world, kind, svcIdx, asMs, aeMs, r)
	if mutate != nil {
		mutate(world)
	}
	if err := validateWorld(world, endMs); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("case-%03d-%s", idx, kind)
	return finish(opt, seed, idx, name, kind, world, injected, asMs, aeMs)
}

// finish simulates a prepared (injected, validated) world, detects the
// phenomenon, replays the history windows and labels ground truth — the
// shared tail of GenerateOneWith and GenerateFromParams. The history
// replays rebuild a pristine world from the same seed and the filler shape
// in opt — callers must pass an opt whose FillerServices/FillerSpecs match
// whatever padded the live world.
func finish(opt Options, seed, idx int64, name string, kind workload.AnomalyKind, world *workload.World, injected workload.Anomaly, asMs, aeMs int64) (*Labeled, error) {
	endMs := int64(opt.TraceSec) * 1000

	// Simulate the instance with the collector attached.
	cfg := dbsim.DefaultConfig()
	if opt.Cores > 0 {
		cfg.Cores = opt.Cores
	}
	cfg.Seed = seed + 13
	inst := dbsim.NewInstance(cfg)
	world.Apply(inst)

	coll := collect.NewCollector(fmt.Sprintf("case-%d", idx), 0, endMs, nil, nil)
	secs, err := inst.Run(dbsim.RunOptions{
		StartMs: 0,
		EndMs:   endMs,
		Source:  world.Source(0, endMs, seed+17),
		Sink:    coll.Sink(),
	})
	if err != nil {
		return nil, err
	}
	coll.IngestMetricsAt(secs)
	fr := coll.Frame()

	// Detect the phenomenon with the production-default rules.
	phenomena := anomaly.DetectDefault(fr.ActiveSession, fr.CPUUsage, fr.IOPSUsage)
	ph, detected := pickPhenomenon(phenomena, int(asMs/1000), int(aeMs/1000))
	if !detected {
		ph = anomaly.Phenomenon{
			Rule:  "injected_window_fallback",
			Start: int(asMs / 1000),
			End:   int(aeMs / 1000),
		}
	}
	cs := anomaly.NewCase(fr, ph)

	// History windows: replay the same (pristine) world with fresh noise.
	for _, days := range opt.HistoryDays {
		pristine := workload.DefaultWorld(seed)
		if opt.FillerServices > 0 {
			pristine.AddFillerServices(opt.FillerServices, opt.FillerSpecs)
		}
		counts := pristine.CountArrivals(0, endMs, seed+int64(days)*101)
		cs.History = append(cs.History, anomaly.HistoryWindow{DaysAgo: days, Counts: counts})
	}

	lab := &Labeled{
		Name:      name,
		Kind:      kind,
		Case:      cs,
		Collector: coll,
		World:     world,
		Injected:  injected,
		Detected:  detected,
		RSQLs:     map[sqltemplate.ID]bool{},
		HSQLs:     map[sqltemplate.ID]bool{},
	}
	for _, id := range injected.RSQLs {
		lab.RSQLs[id] = true
	}
	lab.labelHSQLs()
	return lab, nil
}

func withDefaults(opt Options) Options {
	def := DefaultOptions()
	if opt.TraceSec <= 0 {
		opt.TraceSec = def.TraceSec
	}
	if opt.AnomalyStartSec <= 0 {
		opt.AnomalyStartSec = def.AnomalyStartSec
	}
	if opt.AnomalyMinDurSec <= 0 {
		opt.AnomalyMinDurSec = def.AnomalyMinDurSec
	}
	if opt.AnomalyMaxDurSec <= 0 {
		opt.AnomalyMaxDurSec = def.AnomalyMaxDurSec
	}
	if opt.HistoryDays == nil {
		opt.HistoryDays = def.HistoryDays
	}
	return opt
}

// inject installs one anomaly of the requested family.
func inject(w *workload.World, kind workload.AnomalyKind, svcIdx int, asMs, aeMs int64, r *splitMix) workload.Anomaly {
	svc := w.Services[svcIdx%len(w.Services)]
	switch kind {
	case workload.KindBusinessSpike:
		// Avoid the fulfillment service: its hot-range locking reads make
		// a large rate spike degenerate into a lock storm (that causal
		// structure belongs to the lock-storm family, injected below).
		if svc == w.Services[2] {
			svc = w.Services[(svcIdx+1)%len(w.Services)]
			if svc == w.Services[2] {
				svc = w.Services[0]
			}
		}
		// Size the spike for an 8–14 active-session lift: enough to trip
		// the detector, not enough to stall the instance so badly that
		// the completed-query log (and hence session estimation) goes
		// blind — the same reason production anomalies are actionable.
		target := 8 + float64(r.next()%7)
		factor := target / math.Max(svc.BaseDemand(), 0.05)
		factor = math.Max(5, math.Min(80, factor))
		return w.InjectBusinessSpike(svc, factor, asMs, aeMs)
	case workload.KindPoorSQL:
		rps := 4 + float64(r.next()%4) // ~4–8 cores of extra demand
		return w.InjectPoorSQL(svc, "orders", rps, asMs)
	case workload.KindLockStorm:
		// The storm job belongs to the business whose readers lock the
		// hot rows: fulfillment (order-by-id ... FOR UPDATE).
		rps := 5 + float64(r.next()%4)
		return w.InjectLockStorm(w.Services[2], "orders", rps, asMs, aeMs)
	default:
		return w.InjectMDL("orders", asMs, aeMs-asMs)
	}
}

// pickPhenomenon selects the detected phenomenon overlapping the injected
// window, preferring the one with the largest overlap.
func pickPhenomenon(ps []anomaly.Phenomenon, as, ae int) (anomaly.Phenomenon, bool) {
	best := -1
	bestOverlap := 0
	for i, p := range ps {
		lo, hi := p.Start, p.End
		if as > lo {
			lo = as
		}
		if ae < hi {
			hi = ae
		}
		if hi-lo > bestOverlap {
			bestOverlap = hi - lo
			best = i
		}
	}
	if best < 0 {
		return anomaly.Phenomenon{}, false
	}
	return ps[best], true
}

// labelHSQLs derives the H-SQL ground truth from the true per-template
// active sessions (whole-second expectation over the real query log):
// a template is an H-SQL when its session lift during the anomaly window
// is material both absolutely and relative to the instance lift.
func (l *Labeled) labelHSQLs() {
	f, as, ae := l.Case.Frame, l.Case.AS, l.Case.AE
	est := session.EstimateFrameNoBuckets(f)

	instLift := lift(timeseries.SparseOf(est.Total), as, ae)
	threshold := math.Max(0.5, 0.05*instLift)
	for pos, s := range est.PerTemplate {
		if lift(s, as, ae) >= threshold {
			l.HSQLs[f.Templates[pos].Meta.ID] = true
		}
	}
}

// lift is the anomaly-window mean minus the pre-window mean of a series.
func lift(s timeseries.Sparse, as, ae int) float64 {
	mean := func(lo, hi int) float64 {
		if hi = min(hi, s.N); lo >= hi {
			return 0
		}
		return s.RangeSum(lo, hi) / float64(hi-lo)
	}
	if as <= 0 {
		return mean(0, ae)
	}
	return mean(as, ae) - mean(0, as)
}

// splitMix is a tiny deterministic RNG for parameter jitter, independent of
// math/rand so corpus parameters stay stable across Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
