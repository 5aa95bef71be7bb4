// Package core is PinSQL's diagnosis pipeline — the paper's primary
// contribution assembled end-to-end (§III): given an anomaly case, it
// estimates every template's individual active session from the query log
// (§IV-C), ranks High-impact SQLs by the fused multi-level score (§V), and
// pinpoints Root Cause SQLs through clustering, cumulative-threshold
// selection and history trend verification (§VI).
//
// Every ablation of Fig. 6 is a switch on Config, so the experiment
// harness runs the identical pipeline with one component replaced.
package core

import (
	"time"

	"pinsql/internal/impact"
	"pinsql/internal/rootcause"
	"pinsql/internal/session"
	"pinsql/internal/sqltemplate"
)

// Config carries the full pipeline configuration. Zero value fields fall
// back to the paper's defaults (§VIII-A: δs = 30 min, ks = 30, τ = 0.8,
// Kc = 5, τc = 0.95, K = 10 buckets).
type Config struct {
	Buckets  int     // session estimation buckets K
	SmoothKs float64 // sigmoid smooth factor ks
	Tau      float64 // clustering threshold τ
	TauC     float64 // cumulative threshold τc
	Kc       int     // max clusters Kc
	TukeyK   float64 // history verification Tukey multiplier

	// Workers bounds the fan-out of the three parallelized stages
	// (session estimation, H-SQL scoring, R-SQL clustering/verification).
	// 1 runs the whole pipeline sequentially on the calling goroutine;
	// 0 (or negative) uses GOMAXPROCS workers. Diagnosis output is
	// identical for every value — each stage merges into index-ordered
	// slices, so even floating-point addition order is fixed.
	Workers int

	// Ablation switches (Fig. 6). All false means full PinSQL.
	NoEstimateSession      bool // use total response time instead of estimated sessions
	NoTrendLevel           bool
	NoScaleLevel           bool
	NoScaleTrendLevel      bool
	NoWeightedFinalScore   bool
	NoCumulativeThreshold  bool
	NoHistoryVerification  bool
	NoDirectCauseRanking   bool // rank clusters by Top-RT instead of impact
	IncludeMetricTempNodes bool // add performance metrics as clustering temp nodes
}

// DefaultConfig returns the paper's default parameters with metric temp
// nodes enabled.
func DefaultConfig() Config {
	return Config{
		Buckets:                session.DefaultBuckets,
		SmoothKs:               impact.DefaultSmoothKs,
		Tau:                    rootcause.DefaultTau,
		TauC:                   rootcause.DefaultTauC,
		Kc:                     rootcause.DefaultKc,
		TukeyK:                 rootcause.DefaultTukeyK,
		IncludeMetricTempNodes: true,
	}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Buckets <= 0 {
		c.Buckets = def.Buckets
	}
	if c.SmoothKs <= 0 {
		c.SmoothKs = def.SmoothKs
	}
	if c.Tau <= 0 {
		c.Tau = def.Tau
	}
	if c.TauC <= 0 {
		c.TauC = def.TauC
	}
	if c.Kc <= 0 {
		c.Kc = def.Kc
	}
	if c.TukeyK <= 0 {
		c.TukeyK = def.TukeyK
	}
	return c
}

// Timing reports where diagnosis time went, matching the paper's §VIII-B
// breakdown (estimation, H-SQL ranking, clustering+filtering, history
// verification).
type Timing struct {
	EstimateSession time.Duration
	RankHSQL        time.Duration
	ClusterFilter   time.Duration
	VerifyRank      time.Duration
}

// Total returns the end-to-end diagnosis time.
func (t Timing) Total() time.Duration {
	return t.EstimateSession + t.RankHSQL + t.ClusterFilter + t.VerifyRank
}

// Diagnosis is the pipeline output: both ranked lists of Definition II.5
// plus intermediate artifacts for the harness and the repair module.
type Diagnosis struct {
	HSQLs []impact.Score        // ranked H-SQL list
	RSQLs []rootcause.Candidate // ranked R-SQL list
	Root  *rootcause.Result     // full R-SQL module output
	// FrameEst holds the individual active sessions by frame position; nil
	// under NoEstimateSession, which estimates nothing.
	FrameEst *session.FrameEstimate
	Time     Timing
}

// HSQLIDs returns the ranked H-SQL template IDs.
func (d *Diagnosis) HSQLIDs() []sqltemplate.ID {
	out := make([]sqltemplate.ID, len(d.HSQLs))
	for i, s := range d.HSQLs {
		out[i] = s.ID
	}
	return out
}

// RSQLIDs returns the ranked R-SQL template IDs.
func (d *Diagnosis) RSQLIDs() []sqltemplate.ID {
	out := make([]sqltemplate.ID, len(d.RSQLs))
	for i, c := range d.RSQLs {
		out[i] = c.ID
	}
	return out
}
