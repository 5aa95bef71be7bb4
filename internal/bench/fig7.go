package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/parallel"
	"pinsql/internal/timeseries"
	"pinsql/internal/workload"
)

// Fig7Point is one scalability measurement: the same case diagnosed on
// the sequential path (Workers=1) and on the parallel pipeline.
type Fig7Point struct {
	Templates int     // templates in the case
	PeriodSec int     // anomaly period length
	TimeSec   float64 // sequential diagnosis computing time, seconds
	ParSec    float64 // parallel diagnosis computing time, seconds
}

// Fig7 is the scalability study: computing time against template count and
// against anomaly-period length, with fitted polynomial curves, extended
// beyond the paper with the parallel pipeline's curve at Workers workers.
type Fig7 struct {
	Workers     int // worker count of the parallel curve
	ByTemplates []Fig7Point
	ByPeriod    []Fig7Point
	// TemplateFit / PeriodFit are degree-2 least-squares coefficients
	// (c0 + c1·x + c2·x²) of the sequential red-dot clouds, like the
	// paper's fitted black curves; ParTemplateFit / ParPeriodFit fit the
	// parallel clouds.
	TemplateFit    []float64
	PeriodFit      []float64
	ParTemplateFit []float64
	ParPeriodFit   []float64
}

// RunFig7 sweeps the number of SQL templates and the anomaly period length
// and measures the diagnosis computing time of each generated case, once
// sequentially and once with the parallel pipeline (workers <= 0 means
// GOMAXPROCS). Both runs produce identical diagnoses — the pipeline's
// determinism contract — so the curves differ only in wall-clock.
func RunFig7(seed int64, templateSweep []int, periodSweep []int, workers int) (*Fig7, error) {
	if len(templateSweep) == 0 {
		templateSweep = []int{500, 1000, 2000, 3000, 4500, 6000}
	}
	if len(periodSweep) == 0 {
		periodSweep = []int{600, 1200, 2400, 3600, 4800, 6000}
	}
	out := &Fig7{Workers: parallel.Resolve(workers)}

	measure := func(lab *cases.Labeled) Fig7Point {
		fr := lab.Case.Frame
		seqCfg := core.DefaultConfig()
		seqCfg.Workers = 1
		seq := core.DiagnoseFrame(lab.Case, fr, seqCfg)
		parCfg := core.DefaultConfig()
		parCfg.Workers = out.Workers
		par := core.DiagnoseFrame(lab.Case, fr, parCfg)
		return Fig7Point{
			Templates: len(fr.Templates),
			PeriodSec: lab.Case.AE - lab.Case.AS,
			TimeSec:   seq.Time.Total().Seconds(),
			ParSec:    par.Time.Total().Seconds(),
		}
	}

	// Both sweeps fan case generation out over the worker pool (every
	// sweep point owns an independent seed) and measure in index order on
	// this goroutine, so the report is identical for any worker count.
	// Generation of later points overlaps measurement of earlier ones;
	// that can add scheduler noise to absolute times, but each case's seq
	// and par diagnoses — the ratio the figure is about — still run
	// back-to-back on this goroutine.

	// Sweep 1: templates (fixed moderate anomaly period).
	err := parallel.OrderedStream(workers, len(templateSweep),
		func(i int) (*cases.Labeled, error) {
			opt := cases.DefaultOptions()
			opt.Seed = seed + int64(i)
			opt.TraceSec = 2400
			opt.AnomalyStartSec = 1500
			opt.AnomalyMinDurSec = 300
			opt.AnomalyMaxDurSec = 300
			opt.HistoryDays = []int{1}
			// Filler templates to reach the requested cardinality; the
			// default world carries ~23 of its own.
			fill := templateSweep[i] - 23
			if fill < 0 {
				fill = 0
			}
			opt.FillerServices = fill / 25
			opt.FillerSpecs = 25
			return cases.GenerateOne(opt, int64(i), workload.KindBusinessSpike)
		},
		func(i int, lab *cases.Labeled) error {
			out.ByTemplates = append(out.ByTemplates, measure(lab))
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Sweep 2: anomaly period length (fixed template count).
	err = parallel.OrderedStream(workers, len(periodSweep),
		func(i int) (*cases.Labeled, error) {
			period := periodSweep[i]
			opt := cases.DefaultOptions()
			opt.Seed = seed + 100 + int64(i)
			opt.TraceSec = period + 1900
			opt.AnomalyStartSec = 1800
			opt.AnomalyMinDurSec = period
			opt.AnomalyMaxDurSec = period
			opt.FillerServices = 6
			opt.FillerSpecs = 10
			opt.HistoryDays = []int{1}
			return cases.GenerateOne(opt, int64(i), workload.KindBusinessSpike)
		},
		func(i int, lab *cases.Labeled) error {
			out.ByPeriod = append(out.ByPeriod, measure(lab))
			return nil
		})
	if err != nil {
		return nil, err
	}

	seqTime := func(p Fig7Point) float64 { return p.TimeSec }
	parTime := func(p Fig7Point) float64 { return p.ParSec }
	byTemplates := func(p Fig7Point) float64 { return float64(p.Templates) }
	byPeriod := func(p Fig7Point) float64 { return float64(p.PeriodSec) }
	out.TemplateFit = fitPoints(out.ByTemplates, byTemplates, seqTime)
	out.PeriodFit = fitPoints(out.ByPeriod, byPeriod, seqTime)
	out.ParTemplateFit = fitPoints(out.ByTemplates, byTemplates, parTime)
	out.ParPeriodFit = fitPoints(out.ByPeriod, byPeriod, parTime)
	return out, nil
}

func fitPoints(pts []Fig7Point, xOf, yOf func(Fig7Point) float64) []float64 {
	if len(pts) < 3 {
		return nil
	}
	x := make(timeseries.Series, len(pts))
	y := make(timeseries.Series, len(pts))
	for i, p := range pts {
		x[i] = xOf(p)
		y[i] = yOf(p)
	}
	c, err := timeseries.PolyFit(x, y, 2)
	if err != nil {
		// Fall back to a linear fit when the sweep is too degenerate for
		// a quadratic (e.g. repeated x values).
		c, err = timeseries.PolyFit(x, y, 1)
		if err != nil {
			return nil
		}
	}
	return c
}

// Format renders both panels with the sequential and parallel curves.
func (f *Fig7) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7: scalability of PinSQL diagnosis (parallel curve at %d workers)\n", f.Workers)
	b.WriteString("(a) computing time vs number of templates (period fixed)\n")
	for _, p := range f.ByTemplates {
		fmt.Fprintf(&b, "  templates=%5d  seq=%.3fs  par=%.3fs\n", p.Templates, p.TimeSec, p.ParSec)
	}
	if f.TemplateFit != nil {
		fmt.Fprintf(&b, "  seq fit: t(n) = %.2e + %.2e·n + %.2e·n²\n",
			f.TemplateFit[0], f.TemplateFit[1], coefOr0(f.TemplateFit, 2))
	}
	if f.ParTemplateFit != nil {
		fmt.Fprintf(&b, "  par fit: t(n) = %.2e + %.2e·n + %.2e·n²\n",
			f.ParTemplateFit[0], f.ParTemplateFit[1], coefOr0(f.ParTemplateFit, 2))
	}
	b.WriteString("(b) computing time vs anomaly period length (templates fixed)\n")
	for _, p := range f.ByPeriod {
		fmt.Fprintf(&b, "  period=%5ds  seq=%.3fs  par=%.3fs\n", p.PeriodSec, p.TimeSec, p.ParSec)
	}
	if f.PeriodFit != nil {
		fmt.Fprintf(&b, "  seq fit: t(L) = %.2e + %.2e·L + %.2e·L²\n",
			f.PeriodFit[0], f.PeriodFit[1], coefOr0(f.PeriodFit, 2))
	}
	if f.ParPeriodFit != nil {
		fmt.Fprintf(&b, "  par fit: t(L) = %.2e + %.2e·L + %.2e·L²\n",
			f.ParPeriodFit[0], f.ParPeriodFit[1], coefOr0(f.ParPeriodFit, 2))
	}
	return b.String()
}

func coefOr0(c []float64, i int) float64 {
	if i < len(c) {
		return c[i]
	}
	return 0
}
