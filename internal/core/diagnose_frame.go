package core

import (
	"time"

	"pinsql/internal/anomaly"
	"pinsql/internal/impact"
	"pinsql/internal/rootcause"
	"pinsql/internal/session"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// DiagnoseFrame runs the full pipeline on an anomaly case using the
// columnar window frame as its only data source — no log-store re-scan, no
// map-keyed intermediate tables. Template identity stays a frame position
// through estimation, H-SQL ranking and R-SQL clustering; string template
// IDs appear only in the returned Diagnosis.
//
// The frame must be the window the case was detected on, c.Frame; any other
// panics. Every float accumulation runs in an order the template IDs fix
// (see window.Frame's ByID contract), so the output depends on neither the
// frame's layout nor cfg.Workers.
//
// It is the one-case use of a FrameDiagnoser; a window with several
// phenomena builds one and calls Diagnose per case.
func DiagnoseFrame(c *anomaly.Case, f *window.Frame, cfg Config) *Diagnosis {
	return NewFrameDiagnoser(f, cfg).Diagnose(c)
}

// FrameDiagnoser diagnoses the anomaly cases of one window frame under one
// configuration. Two stages depend only on the frame and the configuration,
// not on a case's anomaly interval: individual active session estimation
// (§IV-C) and the τ-graph's partition of the templates (§VI, step 1 —
// #execution series, metric nodes, τ). Each runs at most once — on the
// first Diagnose — and every case of the frame reads that one result;
// H-SQL ranking and the rest of R-SQL identification (cluster impact
// order, cumulative threshold, verification, final ranking) depend on the
// interval and run per case.
//
// Sharing rule: the estimate and the partition are read-only from the
// moment they exist. Every Diagnosis of the frame carries the same FrameEst
// and session series, so neither the pipeline stages nor a caller may write
// to them. The diagnoser itself is not safe for concurrent use: a window's
// cases are diagnosed one after the other (each stage fans out inside, per
// Config.Workers).
type FrameDiagnoser struct {
	f   *window.Frame
	cfg Config

	est       *session.FrameEstimate // nil under NoEstimateSession
	sessions  []timeseries.Sparse    // by frame position; nil until computed
	partition *rootcause.Partition   // nil until computed
}

// NewFrameDiagnoser prepares the diagnosis of f's cases under cfg. Nothing
// is computed until the first Diagnose.
func NewFrameDiagnoser(f *window.Frame, cfg Config) *FrameDiagnoser {
	return &FrameDiagnoser{f: f, cfg: cfg.withDefaults()}
}

// Estimates returns how many session estimates the diagnoser has computed:
// 0 before the first Diagnose (and always under NoEstimateSession, which
// estimates nothing), 1 after it, however many cases follow.
func (fd *FrameDiagnoser) Estimates() int {
	if fd.est == nil {
		return 0
	}
	return 1
}

// Partitions returns how many τ-graph partitions the diagnoser has computed:
// 0 before the first Diagnose, 1 after it, however many cases follow.
func (fd *FrameDiagnoser) Partitions() int {
	if fd.partition == nil {
		return 0
	}
	return 1
}

// sessionSeries is stage 1: individual active session estimation (§IV-C),
// keyed by frame position, computed by the first call.
func (fd *FrameDiagnoser) sessionSeries() []timeseries.Sparse {
	if fd.sessions != nil {
		return fd.sessions
	}
	f, cfg := fd.f, fd.cfg
	if cfg.NoEstimateSession {
		// Ablation: aggregated response time as the session proxy.
		fd.sessions = make([]timeseries.Sparse, len(f.Templates))
		var seconds timeseries.Series // one scratch for the case
		for pos := range f.Templates {
			seconds = append(seconds[:0], f.Templates[pos].SumRT...)
			for i := range seconds {
				seconds[i] /= 1000
			}
			fd.sessions[pos] = timeseries.SparseOf(seconds)
		}
	} else {
		fd.est = session.EstimateFrameBuckets(f, f.ActiveSession, cfg.Buckets, cfg.Workers)
		fd.sessions = fd.est.PerTemplate
	}
	return fd.sessions
}

// templatePartition is §VI's clustering step, computed by the first call.
// Templates are in frame order (ascending registry index).
func (fd *FrameDiagnoser) templatePartition() *rootcause.Partition {
	if fd.partition != nil {
		return fd.partition
	}
	f, cfg := fd.f, fd.cfg
	exec := make([]timeseries.Series, len(f.Templates))
	for pos := range f.Templates {
		exec[pos] = f.Templates[pos].Count
	}
	var metricNodes map[string]timeseries.Series
	if cfg.IncludeMetricTempNodes {
		metricNodes = map[string]timeseries.Series{
			anomaly.MetricCPUUsage:     f.CPUUsage,
			anomaly.MetricIOPSUsage:    f.IOPSUsage,
			anomaly.MetricRowLockWaits: f.RowLockWaits,
			anomaly.MetricMDLWaits:     f.MDLWaits,
		}
	}
	fd.partition = rootcause.NewPartition(exec, metricNodes, cfg.Tau, cfg.Workers)
	return fd.partition
}

// Diagnose runs the pipeline on one anomaly case of the frame; a case
// detected on another frame panics.
// Time.EstimateSession is the estimate's time on the call that computed it
// and the lookup's on every other; Time.ClusterFilter likewise includes the
// partition's time only on the call that computed it.
func (fd *FrameDiagnoser) Diagnose(c *anomaly.Case) *Diagnosis {
	f, cfg := fd.f, fd.cfg
	if c.Frame != f {
		panic("core: Diagnose of a case detected on another frame")
	}
	d := &Diagnosis{}

	start := time.Now()
	sessions := fd.sessionSeries()
	d.FrameEst = fd.est
	d.Time.EstimateSession = time.Since(start)

	// Stage 2: H-SQL identification (§V).
	start = time.Now()
	iopt := impact.Options{
		SmoothKs:      cfg.SmoothKs,
		UseTrend:      !cfg.NoTrendLevel,
		UseScale:      !cfg.NoScaleLevel,
		UseScaleTrend: !cfg.NoScaleTrendLevel,
		WeightedScore: !cfg.NoWeightedFinalScore,
		Workers:       cfg.Workers,
	}
	d.HSQLs = impact.RankFrame(f, sessions, f.ActiveSession, c.AS, c.AE, iopt)
	d.Time.RankHSQL = time.Since(start)

	// Stage 3: R-SQL identification (§VI), on the frame's one partition.
	start = time.Now()
	partition := fd.templatePartition()
	partitionDur := time.Since(start)
	impactByPos := make([]float64, len(f.Templates))
	for i := range d.HSQLs {
		impactByPos[d.HSQLs[i].Pos] = d.HSQLs[i].Impact
	}
	templates := make([]rootcause.Template, len(f.Templates))
	for pos := range f.Templates {
		t := &f.Templates[pos]
		score := impactByPos[pos]
		if cfg.NoDirectCauseRanking {
			// Ablation: the best Top-SQL baseline (Top-RT) replaces the
			// H-SQL impact for cluster ranking.
			score = t.SumRT.Slice(c.AS, c.AE).Sum()
		}
		templates[pos] = rootcause.Template{
			ID:      t.Meta.ID,
			Exec:    t.Count,
			Session: sessions[pos],
			Impact:  score,
		}
	}
	history := make([]rootcause.HistoryWindow, 0, len(c.History))
	for _, hw := range c.History {
		history = append(history, rootcause.HistoryWindow{DaysAgo: hw.DaysAgo, Counts: hw.Counts})
	}
	ropt := rootcause.Options{
		Tau:                    cfg.Tau,
		TauC:                   cfg.TauC,
		Kc:                     cfg.Kc,
		TukeyK:                 cfg.TukeyK,
		UseCumulativeThreshold: !cfg.NoCumulativeThreshold,
		UseHistoryVerification: !cfg.NoHistoryVerification,
		Workers:                cfg.Workers,
	}
	in := rootcause.Input{
		Templates:   templates,
		InstSession: f.ActiveSession,
		AS:          c.AS,
		AE:          c.AE,
		History:     history,
	}
	d.Root = partition.Identify(in, ropt)
	d.Root.ClusterDur += partitionDur
	d.RSQLs = d.Root.Ranked
	d.Time.ClusterFilter = d.Root.ClusterDur
	d.Time.VerifyRank = d.Root.VerifyDur
	return d
}
