package core

import (
	"pinsql/internal/anomaly"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// Perception is the perception front of the diagnosis pipeline: the Basic
// and Phenomenon Perception Layers (§IV-B, anomaly.Detector) over the
// metrics of one sealed monitoring window. The recognized phenomena are a
// pure function of the frame, so diagnosis reports stay byte-identical
// across worker counts and restarts.
type Perception struct {
	det     *anomaly.Detector
	rules   []anomaly.Rule
	metrics map[string]timeseries.Series
}

// NewPerception builds a perception front with the given detector config
// and phenomenon rules. Nil rules fall back to anomaly.DefaultRules.
func NewPerception(cfg anomaly.Config, rules []anomaly.Rule) *Perception {
	if rules == nil {
		rules = anomaly.DefaultRules()
	}
	return &Perception{det: anomaly.NewDetector(cfg), rules: rules}
}

// ObserveFrame takes the frame's detection metrics — the three the default
// production rules watch (active sessions, CPU, IOPS) — replacing those of
// any frame observed before. The series are read at Phenomena, not copied.
func (p *Perception) ObserveFrame(fr *window.Frame) {
	p.metrics = anomaly.WatchedMetrics(fr.ActiveSession, fr.CPUUsage, fr.IOPSUsage)
}

// Phenomena runs both perception layers over the observed frame and
// returns the recognized phenomena, merged, duration-filtered and
// deterministically ordered.
func (p *Perception) Phenomena() []anomaly.Phenomenon {
	return p.det.DetectPhenomena(p.metrics, p.rules)
}
