// Package window defines the columnar, index-keyed representation of one
// collection window — the single frame every diagnosis layer consumes.
//
// The paper's pipeline (§IV) is a straight dataflow: per-template
// aggregates plus the raw observation stream feed session estimation,
// H-SQL ranking and R-SQL identification. A Frame materializes that
// dataflow's working set exactly once, at collection time:
//
//	Templates  [T]        per-template aggregates, ascending Meta.Index
//	Off        [T+1]      observation group offsets (prefix sums)
//	Arrival    [N]int64   observation columns, SoA: obs of Templates[i]
//	Response   [N]float64 are Arrival/Response[Off[i]:Off[i+1]]
//	ByID       [T]        frame positions in ascending template-ID order
//	metrics    [seconds]  the instance metric series (Definition II.4)
//
// Inside the pipeline, templates are plain positions (0..T-1) into these
// columns; the string sqltemplate.ID appears only at the boundaries —
// reports, caseio documents, the HTTP control plane — via Meta.ID.
//
// Determinism: the frame fixes every iteration order a diagnosis depends
// on. Observation groups hold each template's records sorted by arrival time
// with ties in log-store insertion order (exactly the store's scan order),
// and ByID is the "template IDs in ascending string order" float-accumulation
// order of the session estimator and impact ranker — so a diagnosis is a
// function of the window's records and template IDs, not of registry
// indexes, map iteration or the Workers count.
package window

import (
	"math/bits"
	"sort"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// Meta identifies one SQL template inside a frame. It mirrors the
// collector registry's entry (collect.TemplateMeta) without importing it:
// collect builds frames, so the dependency must point this way.
type Meta struct {
	Index int32          // dense registry index
	ID    sqltemplate.ID // digest of the normalized statement
	Text  string         // normalized statement
	Table string
	Kind  dbsim.QueryKind
}

// Template is one SQL template's aggregated view over the window: the
// sum/count aggregation of §IV-A, one sample per second.
type Template struct {
	Meta Meta

	Count     timeseries.Series // #execution per second
	SumRT     timeseries.Series // Σ tres per second, milliseconds
	SumRows   timeseries.Series // Σ #examined_rows per second
	Throttled timeseries.Series // statements rejected by a throttle rule
}

// MeanRT returns the average response time per executed statement over the
// whole window, in milliseconds.
func (t *Template) MeanRT() float64 {
	n := t.Count.Sum()
	if n == 0 {
		return 0
	}
	return t.SumRT.Sum() / n
}

// MeanRows returns the average examined rows per executed statement.
func (t *Template) MeanRows() float64 {
	n := t.Count.Sum()
	if n == 0 {
		return 0
	}
	return t.SumRows.Sum() / n
}

// Frame is one collection window in columnar form. Frames are immutable
// once built (Finalize); sharing one across goroutines is safe.
type Frame struct {
	Topic   string
	StartMs int64
	Seconds int

	// Templates in ascending Meta.Index order. Position in this slice —
	// not Meta.Index, which is registry-global — is the frame's template
	// key.
	Templates []Template

	// Observation columns (SoA). The group of Templates[i] is
	// Arrival[Off[i]:Off[i+1]] / Response[Off[i]:Off[i+1]], sorted by
	// arrival time with ties in insertion order — the log store's scan
	// order, so the columns replace a store re-scan bit-for-bit.
	Off      []int32
	Arrival  []int64
	Response []float64

	// ByID[k] is the position of the k-th template in ascending Meta.ID
	// order: the iteration order for every float accumulation whose
	// result must not depend on the frame's layout.
	ByID []int32

	// Instance performance metrics (Definition II.4), one sample/second.
	ActiveSession timeseries.Series
	AvgSession    timeseries.Series
	CPUUsage      timeseries.Series
	IOPSUsage     timeseries.Series
	MemUsage      timeseries.Series
	QPS           timeseries.Series
	RowLockWaits  timeseries.Series
	MDLWaits      timeseries.Series

	posByID map[sqltemplate.ID]int32
}

// NumTemplates returns T, the number of templates in the frame.
func (f *Frame) NumTemplates() int { return len(f.Templates) }

// NumObs returns N, the number of raw observations in the frame.
func (f *Frame) NumObs() int { return len(f.Arrival) }

// Obs returns template position pos's observation columns.
func (f *Frame) Obs(pos int) (arrival []int64, response []float64) {
	lo, hi := f.Off[pos], f.Off[pos+1]
	return f.Arrival[lo:hi], f.Response[lo:hi]
}

// ObsLen returns the number of observations of template position pos.
func (f *Frame) ObsLen(pos int) int { return int(f.Off[pos+1] - f.Off[pos]) }

// Pos resolves a template ID to its frame position; ok is false when the
// frame has no such template. This is a boundary helper — inner pipeline
// stages should carry positions, not IDs.
func (f *Frame) Pos(id sqltemplate.ID) (pos int, ok bool) {
	p, ok := f.posByID[id]
	return int(p), ok
}

// Template returns the template with the given ID, or nil when the frame
// has none: Pos at the boundary, for callers that want the series.
func (f *Frame) Template(id sqltemplate.ID) *Template {
	if pos, ok := f.Pos(id); ok {
		return &f.Templates[pos]
	}
	return nil
}

// Finalize fixes the frame's derived state after the builder filled
// Templates (ascending Meta.Index), Off/Arrival/Response and the metric
// series: each observation group is stable-sorted by arrival time and the
// ByID permutation plus the ID→position index are computed. The frame
// must not be mutated afterwards.
func (f *Frame) Finalize() {
	if len(f.Off) != len(f.Templates)+1 {
		panic("window: Off must have NumTemplates+1 entries")
	}
	for t := range f.Templates {
		lo, hi := f.Off[t], f.Off[t+1]
		sortObsGroup(f.Arrival[lo:hi], f.Response[lo:hi])
	}
	f.ByID = make([]int32, len(f.Templates))
	for i := range f.ByID {
		f.ByID[i] = int32(i)
	}
	sort.Slice(f.ByID, func(i, j int) bool {
		return f.Templates[f.ByID[i]].Meta.ID < f.Templates[f.ByID[j]].Meta.ID
	})
	f.posByID = make(map[sqltemplate.ID]int32, len(f.Templates))
	for i := range f.Templates {
		id := f.Templates[i].Meta.ID
		if _, dup := f.posByID[id]; !dup { // a duplicated ID names its first position, as caseio reads it
			f.posByID[id] = int32(i)
		}
	}
}

// sortObsGroup stable-sorts one observation group by arrival time with
// ties in insertion order. A group in log (completion) order is nearly
// sorted, so this is a paired insertion, which moves an observation only
// past strictly later arrivals; past its move budget sort.Stable finishes
// the group from where insertion stopped, O(n log n) at worst.
func sortObsGroup(arrival []int64, response []float64) {
	n := len(arrival)
	if _, done := insertObsGroup(arrival, response, 4*n*bits.Len(uint(n))); !done {
		sort.Stable(obsGroup{arrival, response})
	}
}

// insertObsGroup is sortObsGroup's insertion pass; it gives up as soon as
// it has moved more than budget observations. done reports whether it
// finished.
func insertObsGroup(arrival []int64, response []float64, budget int) (moves int, done bool) {
	for i := 1; i < len(arrival); i++ {
		a := arrival[i]
		if a >= arrival[i-1] {
			continue
		}
		r := response[i]
		j := i
		for ; j > 0 && arrival[j-1] > a; j-- {
			arrival[j], response[j] = arrival[j-1], response[j-1]
		}
		arrival[j], response[j] = a, r
		if moves += i - j; moves > budget {
			return moves, false
		}
	}
	return moves, true
}

// obsGroup orders the paired columns by arrival for sort.Stable.
type obsGroup struct {
	arrival  []int64
	response []float64
}

func (g obsGroup) Len() int           { return len(g.arrival) }
func (g obsGroup) Less(i, j int) bool { return g.arrival[i] < g.arrival[j] }
func (g obsGroup) Swap(i, j int) {
	g.arrival[i], g.arrival[j] = g.arrival[j], g.arrival[i]
	g.response[i], g.response[j] = g.response[j], g.response[i]
}
