package caseio

import (
	"fmt"

	"pinsql/internal/anomaly"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// FromFrame converts an anomaly case plus its window frame into the
// serializable document. The rendered bytes depend only on the case:
// templates are emitted in frame (registry-index) order and the query rows
// follow the frame's ByID permutation — ascending template ID, arrival order
// within a template — so the same case serializes identically however it was
// produced (the parallel-generation equivalence tests diff files directly).
func FromFrame(c *anomaly.Case, f *window.Frame) *File {
	out := &File{
		Version:       CurrentVersion,
		StartMs:       f.StartMs,
		Seconds:       f.Seconds,
		Anomaly:       Window{Start: c.AS, End: c.AE},
		Rule:          c.Phenomenon.Rule,
		ActiveSession: f.ActiveSession,
		CPUUsage:      f.CPUUsage,
		IOPSUsage:     f.IOPSUsage,
		MemUsage:      f.MemUsage,
		RowLockWaits:  f.RowLockWaits,
		MDLWaits:      f.MDLWaits,
	}
	for i := range f.Templates {
		t := &f.Templates[i]
		out.Templates = append(out.Templates, Template{
			ID:      string(t.Meta.ID),
			SQL:     t.Meta.Text,
			Table:   t.Meta.Table,
			Count:   t.Count,
			SumRT:   t.SumRT,
			SumRows: t.SumRows,
		})
	}
	for _, pos := range f.ByID {
		arr, resp := f.Obs(int(pos))
		id := string(f.Templates[pos].Meta.ID)
		for i, a := range arr {
			out.Queries = append(out.Queries, Query{
				Template:   id,
				ArrivalMs:  a,
				ResponseMs: resp[i],
			})
		}
	}
	for _, hw := range c.History {
		h := History{DaysAgo: hw.DaysAgo, Counts: make(map[string][]float64, len(hw.Counts))}
		for id, s := range hw.Counts {
			h.Counts[string(id)] = s
		}
		out.History = append(out.History, h)
	}
	return out
}

// ToFrame validates the document and reconstructs the case and its columnar
// window frame. Query rows are grouped by template in file order; rows
// referencing a template absent from the Templates section are dropped (the
// frame's axes are the declared templates — files produced by FromFrame
// never contain such rows), and a duplicated template ID claims its rows
// once, at its first position. Finalize re-sorts each group by arrival time,
// so a hand-edited file with out-of-order rows diagnoses as if its rows had
// been arrival-sorted.
func (f *File) ToFrame() (*anomaly.Case, *window.Frame, error) {
	if f.Version != CurrentVersion {
		return nil, nil, fmt.Errorf("caseio: unsupported version %d", f.Version)
	}
	if f.Seconds <= 0 {
		return nil, nil, fmt.Errorf("caseio: seconds must be positive")
	}
	if len(f.Templates) == 0 {
		return nil, nil, fmt.Errorf("caseio: no templates")
	}
	fr := &window.Frame{
		Topic:         f.Name,
		StartMs:       f.StartMs,
		Seconds:       f.Seconds,
		ActiveSession: pad(f.ActiveSession, f.Seconds),
		CPUUsage:      pad(f.CPUUsage, f.Seconds),
		IOPSUsage:     pad(f.IOPSUsage, f.Seconds),
		MemUsage:      pad(f.MemUsage, f.Seconds),
		RowLockWaits:  pad(f.RowLockWaits, f.Seconds),
		MDLWaits:      pad(f.MDLWaits, f.Seconds),
		AvgSession:    make(timeseries.Series, f.Seconds),
		QPS:           make(timeseries.Series, f.Seconds),
		Templates:     make([]window.Template, len(f.Templates)),
		Off:           make([]int32, len(f.Templates)+1),
	}
	posOf := make(map[sqltemplate.ID]int, len(f.Templates))
	for i, t := range f.Templates {
		id := sqltemplate.ID(t.ID)
		if id == "" {
			if t.SQL == "" {
				return nil, nil, fmt.Errorf("caseio: template %d has neither id nor sql", i)
			}
			id = sqltemplate.New(t.SQL).ID
		}
		fr.Templates[i] = window.Template{
			Meta:      window.Meta{Index: int32(i), ID: id, Text: t.SQL, Table: t.Table},
			Count:     pad(t.Count, f.Seconds),
			SumRT:     pad(t.SumRT, f.Seconds),
			SumRows:   pad(t.SumRows, f.Seconds),
			Throttled: make(timeseries.Series, f.Seconds),
		}
		if _, dup := posOf[id]; !dup {
			posOf[id] = i
		}
	}
	// Group the query rows by template position, file order within a group:
	// count each group, turn the counts into offsets, then place the rows.
	for _, q := range f.Queries {
		if pos, ok := posOf[sqltemplate.ID(q.Template)]; ok {
			fr.Off[pos+1]++
		}
	}
	for i := range f.Templates {
		fr.Off[i+1] += fr.Off[i]
	}
	fr.Arrival = make([]int64, fr.Off[len(f.Templates)])
	fr.Response = make([]float64, len(fr.Arrival))
	next := append([]int32(nil), fr.Off...)
	for _, q := range f.Queries {
		if pos, ok := posOf[sqltemplate.ID(q.Template)]; ok {
			fr.Arrival[next[pos]], fr.Response[next[pos]] = q.ArrivalMs, q.ResponseMs
			next[pos]++
		}
	}
	fr.Finalize()

	rule := f.Rule
	if rule == "" {
		rule = "from_file"
	}
	c := anomaly.NewCase(fr, anomaly.Phenomenon{
		Rule:  rule,
		Start: f.Anomaly.Start,
		End:   f.Anomaly.End,
	})
	if c.AE <= c.AS {
		return nil, nil, fmt.Errorf("caseio: anomaly window [%d, %d) is empty within the case's %d seconds",
			f.Anomaly.Start, f.Anomaly.End, f.Seconds)
	}
	for _, h := range f.History {
		hw := anomaly.HistoryWindow{
			DaysAgo: h.DaysAgo,
			Counts:  make(map[sqltemplate.ID]timeseries.Series, len(h.Counts)),
		}
		for id, counts := range h.Counts {
			hw.Counts[sqltemplate.ID(id)] = pad(counts, f.Seconds)
		}
		c.History = append(c.History, hw)
	}
	return c, fr, nil
}
