package collect

import (
	"cmp"
	"slices"

	"pinsql/internal/logstore"
	"pinsql/internal/window"
)

// RebuildFrame assembles the window frame from scratch and by other means
// than Frame: every series cloned, each template's records gathered from
// the ingest-ordered window log — never from its arranged form — and every
// group stable-sorted here, by slices.SortStableFunc on the records, before
// it is split into columns; the group sort Finalize runs is the code under
// test. It ignores and leaves untouched the seal state, so it is the
// independent reference the differential tests compare Frame() against:
// the two must be byte-identical for any ingest interleaving.
func (c *Collector) RebuildFrame() *window.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()

	f := &window.Frame{
		Topic:         c.topic,
		StartMs:       c.startMs,
		Seconds:       c.seconds,
		ActiveSession: c.met.ActiveSession.Clone(),
		AvgSession:    c.met.AvgSession.Clone(),
		CPUUsage:      c.met.CPUUsage.Clone(),
		IOPSUsage:     c.met.IOPSUsage.Clone(),
		MemUsage:      c.met.MemUsage.Clone(),
		QPS:           c.met.QPS.Clone(),
		RowLockWaits:  c.met.RowLockWaits.Clone(),
		MDLWaits:      c.met.MDLWaits.Clone(),
	}

	ordered := make([]*templateSeries, 0, len(c.templates))
	for _, ts := range c.templates {
		ordered = append(ordered, ts)
	}
	sortTemplates(ordered)

	groups := make(map[int32][]logstore.Record, len(ordered))
	total := 0
	for _, chunk := range c.log {
		for _, r := range chunk {
			groups[r.TemplateIdx] = append(groups[r.TemplateIdx], r)
			total++
		}
	}
	f.Templates = make([]window.Template, len(ordered))
	f.Off = make([]int32, len(ordered)+1)
	f.Arrival = make([]int64, 0, total)
	f.Response = make([]float64, 0, total)
	for i, ts := range ordered {
		f.Templates[i] = window.Template{
			Meta:      ts.Meta,
			Count:     ts.Count.Clone(),
			SumRT:     ts.SumRT.Clone(),
			SumRows:   ts.SumRows.Clone(),
			Throttled: ts.Throttled.Clone(),
		}
		group := groups[ts.Meta.Index]
		slices.SortStableFunc(group, func(a, b logstore.Record) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) })
		for _, r := range group {
			f.Arrival = append(f.Arrival, r.ArrivalMs)
			f.Response = append(f.Response, r.ResponseMs)
		}
		f.Off[i+1] = int32(len(f.Arrival))
	}
	f.Finalize()
	return f
}

func sortTemplates(ts []*templateSeries) {
	// Insertion sort: template counts per window are moderate and the
	// input is usually almost sorted (registry order of first arrival).
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1].Meta.Index > ts[j].Meta.Index; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}
