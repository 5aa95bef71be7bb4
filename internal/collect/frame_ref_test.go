package collect

import "pinsql/internal/window"

// RebuildFrame assembles the window frame from scratch — every series
// cloned, every observation group re-concatenated and re-sorted, all
// derived state recomputed — exactly as Frame did before the delta build.
// It ignores and leaves untouched the incremental seal state, so it is the
// from-scratch reference the differential tests compare the delta build
// against. The result must be byte-identical to Frame()'s at every point of
// any ingest interleaving.
func (c *Collector) RebuildFrame() *window.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()

	met := c.met.clone()
	f := &window.Frame{
		Topic:         c.topic,
		StartMs:       c.startMs,
		Seconds:       c.seconds,
		ActiveSession: met.ActiveSession,
		AvgSession:    met.AvgSession,
		CPUUsage:      met.CPUUsage,
		IOPSUsage:     met.IOPSUsage,
		MemUsage:      met.MemUsage,
		QPS:           met.QPS,
		RowLockWaits:  met.RowLockWaits,
		MDLWaits:      met.MDLWaits,
	}

	ordered := make([]*TemplateSeries, 0, len(c.templates))
	for _, ts := range c.templates {
		ordered = append(ordered, ts)
	}
	sortTemplates(ordered)

	total := 0
	for _, ts := range ordered {
		total += len(ts.obs.arrival)
	}
	f.Templates = make([]window.Template, len(ordered))
	f.Off = make([]int32, len(ordered)+1)
	f.Arrival = make([]int64, 0, total)
	f.Response = make([]float64, 0, total)
	for i, ts := range ordered {
		f.Templates[i] = window.Template{
			Meta:      window.Meta(ts.Meta),
			Count:     ts.Count.Clone(),
			SumRT:     ts.SumRT.Clone(),
			SumRows:   ts.SumRows.Clone(),
			Throttled: ts.Throttled.Clone(),
		}
		f.Arrival = append(f.Arrival, ts.obs.arrival...)
		f.Response = append(f.Response, ts.obs.response...)
		f.Off[i+1] = int32(len(f.Arrival))
	}
	f.Finalize()
	return f
}

func sortTemplates(ts []*TemplateSeries) {
	// Insertion sort: template counts per snapshot are moderate and the
	// input is usually almost sorted (registry order of first arrival).
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1].Meta.Index > ts[j].Meta.Index; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}
