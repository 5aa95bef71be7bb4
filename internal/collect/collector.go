package collect

import (
	"slices"
	"sort"
	"sync"
	"unsafe"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// templateSeries is one template's live state over the collection window:
// the aggregates a seal hands to the frame as they are, cut from one slab,
// and the size of its observation group.
type templateSeries struct {
	window.Template
	nobs int32 // observations in the window log: its group's size at the seal
	slab []float64
}

// seriesPool and metricPool hold the *templateSeries and *metricSet of
// released collectors that never sealed, which no frame aliases; slabs
// stale, cleared when drawn.
var seriesPool, metricPool sync.Pool

// carve points each *dst at the next n floats of slab — cleared, or of a
// new slab when this one is too short — capped so that none grows into the
// next, and returns the slab.
func carve(slab []float64, n int, dst ...*timeseries.Series) []float64 {
	if cap(slab) < len(dst)*n {
		slab = make([]float64, len(dst)*n)
	} else {
		slab = slab[:len(dst)*n]
		clear(slab)
	}
	for k, p := range dst {
		*p = slab[k*n : (k+1)*n : (k+1)*n]
	}
	return slab
}

func newTemplateSeries(meta window.Meta, seconds int) *templateSeries {
	ts, _ := seriesPool.Get().(*templateSeries)
	if ts == nil {
		ts = new(templateSeries)
	}
	*ts = templateSeries{Template: window.Template{Meta: meta}, slab: ts.slab}
	ts.slab = carve(ts.slab, seconds, &ts.Count, &ts.SumRT, &ts.SumRows, &ts.Throttled)
	return ts
}

// metricSet is the live per-second instance metric series, populated row
// by row during ingestion; set is the single bounds-checked placement point,
// and the seal hands the series to the frame as they are.
type metricSet struct {
	ActiveSession timeseries.Series
	AvgSession    timeseries.Series
	CPUUsage      timeseries.Series
	IOPSUsage     timeseries.Series
	MemUsage      timeseries.Series
	QPS           timeseries.Series
	RowLockWaits  timeseries.Series
	MDLWaits      timeseries.Series
	slab          []float64
}

func newMetricSet(seconds int) *metricSet {
	m, _ := metricPool.Get().(*metricSet)
	if m == nil {
		m = new(metricSet)
	}
	m.slab = carve(m.slab, seconds, &m.ActiveSession, &m.AvgSession, &m.CPUUsage, &m.IOPSUsage,
		&m.MemUsage, &m.QPS, &m.RowLockWaits, &m.MDLWaits)
	return m
}

// set places one metric row at window second sec; rows outside [0, seconds)
// are dropped.
func (m *metricSet) set(sec int, row dbsim.SecondMetrics) {
	if sec < 0 || sec >= len(m.ActiveSession) {
		return
	}
	m.ActiveSession[sec] = row.ActiveSession
	m.AvgSession[sec] = row.AvgActiveSession
	m.CPUUsage[sec] = row.CPUUsage
	m.IOPSUsage[sec] = row.IOPSUsage
	m.MemUsage[sec] = row.MemUsage
	m.QPS[sec] = float64(row.QPS)
	m.RowLockWaits[sec] = float64(row.RowLockWaits)
	m.MDLWaits[sec] = float64(row.MDLWaits)
}

// logChunk is the fixed record capacity of one chunk of a window log (128
// KiB): the log grows a chunk at a time and never copies what it holds.
const logChunk = 4096

// chunkPool holds the chunks of released collectors' window logs, contents
// stale: a log only ever reads what it has appended.
var chunkPool = sync.Pool{New: func() any { return new([logChunk]logstore.Record) }}

// A collector's identity table has 1 << identBits slots.
const (
	identBits  = 8
	identSlots = 1 << identBits
)

// identSlot remembers the series of the last record whose TemplateID was the
// n bytes at p. p keeps that storage from being collected and reused while
// the slot stands; it is compared, never dereferenced.
type identSlot struct {
	p  *byte
	n  int
	ts *templateSeries
}

// Collector ingests the raw query-log stream and instance metrics of one
// database instance over a fixed window, producing per-template aggregates
// and keeping the window's compact records.
//
// The records are kept once, in ingest order, in a chunked window log. The
// seal scatters the log into the frame's template groups, which Finalize
// sorts, each nearly sorted already; the one arrival order across templates
// (logstore.ArrangeCounted) is made only for a store: by TakeArranged, or
// at the seal of a collector given one.
//
// The seal is terminal: the first Frame call builds the window's one frame,
// handing it the live series, and from then on every ingest panics, so
// nothing writes a sealed frame. Detection needs no seal (Watched), so a
// window is sealed only when a phenomenon asks for diagnosis, and Release
// recycles the series of one never sealed.
//
// Lock order: c.mu before the registry's lock, and c.mu before the store's
// locks. IngestBatch interns and the seal appends to the store under c.mu;
// neither the registry nor a store ever calls back into a collector.
type Collector struct {
	mu       sync.Mutex
	released bool // Release was called: lock panics
	topic    string
	startMs  int64
	seconds  int
	registry *Registry
	store    logstore.Backend // receives the arranged window at the seal; nil for none

	// templates resolves a template ID to its window state: a pre-digested
	// record reaches the shared registry only on first sight in the window.
	templates map[sqltemplate.ID]*templateSeries

	// ident answers for templates before it is asked: direct-mapped on the
	// identity — data pointer and length — of a record's TemplateID string.
	// Sources that pre-digest IDs hand out one string per template, so most
	// records find their series here without hashing the ID's bytes; equal
	// IDs in other storage miss and take the map.
	ident [identSlots]identSlot

	// ordered mirrors templates in ascending Meta.Index order — the
	// frame's template-position order — maintained by insertion as new
	// templates intern, so sealing never re-sorts.
	ordered []*templateSeries

	// log is the window log: every archived record, in ingest order, in
	// chunks of logChunk drawn from chunkPool; it is never given away, and
	// Release returns the chunks. perSec counts its records by arrival
	// second of the window, for the arrangement a store takes.
	log    [][]logstore.Record
	perSec []int

	met     *metricSet
	records int64 // raw query records in the window log

	frame *window.Frame // the sealed window; nil until Frame
}

// NewCollector creates a collector for the window [startMs, endMs) on the
// given topic (instance name). A nil registry creates a private one. A
// non-nil store — any logstore.Backend, shareable across collectors — is
// handed the window's records once, at the seal, arranged as TakeArranged
// arranges them (one AppendBatch, given up; it stops at the first record
// behind the topic's newest); nil means none: the collector's own window
// log is the only copy, and the seal arranges nothing.
func NewCollector(topic string, startMs, endMs int64, registry *Registry, store logstore.Backend) *Collector {
	if registry == nil {
		registry = NewRegistry()
	}
	seconds := int((endMs - startMs + 999) / 1000)
	return &Collector{
		topic:     topic,
		startMs:   startMs,
		seconds:   seconds,
		registry:  registry,
		store:     store,
		templates: make(map[sqltemplate.ID]*templateSeries),
		met:       newMetricSet(seconds),
		perSec:    make([]int, seconds),
	}
}

// lock takes c.mu for a method of a live collector; an ingest also needs
// the window unsealed.
func (c *Collector) lock(ingest bool) {
	c.mu.Lock()
	switch {
	case c.released:
		c.mu.Unlock()
		panic("collect: Collector used after Release")
	case ingest && c.frame != nil:
		c.mu.Unlock()
		panic("collect: Collector ingest after Frame sealed the window")
	}
}

// Release ends the collector, and any later call on it panics. What no
// frame aliases goes back to the pools the next collector draws from: its
// window log's chunks, and, if it never sealed, its series. A sealed
// frame keeps its series, and runs handed over alias no chunk.
func (c *Collector) Release() {
	c.lock(false)
	defer c.mu.Unlock()
	c.released = true
	for _, chunk := range c.log {
		chunkPool.Put((*[logChunk]logstore.Record)(chunk[:logChunk]))
	}
	if c.frame == nil {
		for _, ts := range c.ordered {
			seriesPool.Put(ts)
		}
		metricPool.Put(c.met)
	}
	c.log = nil
}

// Registry returns the template registry backing this collector.
func (c *Collector) Registry() *Registry { return c.registry }

// Sink returns a dbsim.LogSink that feeds this collector; plug it directly
// into a simulation run.
func (c *Collector) Sink() dbsim.LogSink { return c.Ingest }

// insertOrdered places a freshly interned template into the position-order
// mirror.
func (c *Collector) insertOrdered(ts *templateSeries) {
	pos := sort.Search(len(c.ordered), func(i int) bool {
		return c.ordered[i].Meta.Index > ts.Meta.Index
	})
	c.ordered = slices.Insert(c.ordered, pos, ts)
}

// Ingest consumes one query-log record: IngestBatch of one.
func (c *Collector) Ingest(rec dbsim.LogRecord) {
	c.IngestBatch([]dbsim.LogRecord{rec})
}

// seriesLocked returns the window state of the record's template, creating
// it on first sight. Raw-SQL records intern per record (the registry's
// fingerprint index and its hit counters see every one of them).
func (c *Collector) seriesLocked(rec *dbsim.LogRecord) *templateSeries {
	if id := sqltemplate.ID(rec.TemplateID); id != "" {
		// The same bytes at the same address are the same ID: strings are
		// immutable and the slot's pointer has kept these from being reused.
		p, n := unsafe.StringData(rec.TemplateID), len(rec.TemplateID)
		slot := &c.ident[(uint64(uintptr(unsafe.Pointer(p)))+uint64(n))*0x9e3779b97f4a7c15>>(64-identBits)]
		if slot.p == p && slot.n == n {
			return slot.ts
		}
		if ts, ok := c.templates[id]; ok {
			*slot = identSlot{p, n, ts}
			return ts
		}
	}
	meta := c.registry.intern(rec)
	ts, ok := c.templates[meta.ID]
	if !ok {
		ts = newTemplateSeries(window.Meta(meta), c.seconds)
		c.templates[meta.ID] = ts
		c.insertOrdered(ts)
	}
	return ts
}

// IngestBatch consumes query-log records in order under one acquisition of
// the collector lock; recs is not retained. Records outside the window are
// skipped (integer division would round −1..−999 ms up to second 0). Each
// archived record (session estimation needs per-query start and response
// times, §IV-C) is written once, into the tail of the window log.
func (c *Collector) IngestBatch(recs []dbsim.LogRecord) {
	c.lock(true)
	defer c.mu.Unlock()
	var tail []logstore.Record
	if n := len(c.log); n > 0 {
		tail = c.log[n-1]
	}
	// flush puts the grown tail chunk back.
	sent := len(tail)
	flush := func() {
		if len(tail) == sent {
			return
		}
		c.log[len(c.log)-1] = tail
	}
	for i := range recs {
		rec := &recs[i]
		if rec.ArrivalMs < c.startMs {
			continue
		}
		sec := int((rec.ArrivalMs - c.startMs) / 1000)
		if sec >= c.seconds {
			continue
		}
		ts := c.seriesLocked(rec)
		if rec.Throttled {
			ts.Throttled[sec]++
			continue
		}
		ts.Count[sec]++
		ts.SumRT[sec] += rec.ResponseMs
		ts.SumRows[sec] += float64(rec.ExaminedRows)
		ts.nobs++
		c.records++
		c.perSec[sec]++

		if len(tail) == cap(tail) {
			flush()
			tail, sent = chunkPool.Get().(*[logChunk]logstore.Record)[:0], 0
			c.log = append(c.log, tail)
		}
		tail = append(tail, logstore.Record{
			TemplateIdx:  ts.Meta.Index,
			ArrivalMs:    rec.ArrivalMs,
			ResponseMs:   rec.ResponseMs,
			ExaminedRows: rec.ExaminedRows,
		})
	}
	flush()
}

// IngestMetricsAt stores per-second performance metrics keyed by each
// row's window-relative Second: gaps stay zero rows, a duplicated second
// keeps the last row, rows outside [0, seconds) are dropped. A caller
// stacking several 0-based simulator runs into one window shifts each run's
// rows by its offset first.
func (c *Collector) IngestMetricsAt(rows []dbsim.SecondMetrics) {
	c.lock(true)
	defer c.mu.Unlock()
	for _, m := range rows {
		c.met.set(int(m.Second), m)
	}
}

// Watched returns the window's live active-session, CPU and IOPS series,
// the three anomaly.DetectDefault watches, without sealing it: read-only,
// and valid until Release.
func (c *Collector) Watched() (activeSession, cpuUsage, iopsUsage timeseries.Series) {
	c.lock(false)
	defer c.mu.Unlock()
	return c.met.ActiveSession, c.met.CPUUsage, c.met.IOPSUsage
}

// arrangeLocked arranges the window log with the per-second counts
// IngestBatch kept.
func (c *Collector) arrangeLocked() ([]logstore.Record, logstore.Work) {
	return logstore.ArrangeCounted(c.log, c.startMs, c.perSec)
}

// TakeArranged returns the window's records in arrival order with ties in
// ingest order — what a store handed them scans back — as the one new
// array logstore.ArrangeCounted writes, and gives it up: the caller owns it
// (and may pass it on to Backend.AppendBatch), and every call arranges
// afresh. The seal neither needs nor keeps this form.
func (c *Collector) TakeArranged() []logstore.Record {
	c.lock(false)
	defer c.mu.Unlock()
	recs, _ := c.arrangeLocked()
	return recs
}

// Frame seals the collection window, on its first call, into its columnar
// window.Frame — per-template aggregates, observation columns grouped by
// template position, the metric series, and the ByID permutation — from
// what the collector itself holds; no store is scanned. A collector given a
// store hands it the arranged records then, as TakeArranged gives them.
// Every call returns that one frame, and any ingest after it panics.
func (c *Collector) Frame() *window.Frame {
	c.lock(false)
	defer c.mu.Unlock()
	if c.frame == nil {
		c.frame = c.sealLocked()
		if c.store != nil {
			// The store's rule may refuse a suffix, nothing behind its
			// topic's newest; the frame is sealed either way.
			recs, _ := c.arrangeLocked()
			_, _ = c.store.AppendBatch(c.topic, recs)
		}
	}
	return c.frame
}

// sealLocked builds the window's frame.
func (c *Collector) sealLocked() *window.Frame {
	T := len(c.ordered)
	f := &window.Frame{
		Topic:         c.topic,
		StartMs:       c.startMs,
		Seconds:       c.seconds,
		ActiveSession: c.met.ActiveSession,
		AvgSession:    c.met.AvgSession,
		CPUUsage:      c.met.CPUUsage,
		IOPSUsage:     c.met.IOPSUsage,
		MemUsage:      c.met.MemUsage,
		QPS:           c.met.QPS,
		RowLockWaits:  c.met.RowLockWaits,
		MDLWaits:      c.met.MDLWaits,
		Templates:     make([]window.Template, T),
		Off:           make([]int32, T+1),
	}
	for i, ts := range c.ordered {
		f.Templates[i] = ts.Template
		f.Off[i+1] = f.Off[i] + ts.nobs
	}
	f.Arrival = make([]int64, f.Off[T])
	f.Response = make([]float64, f.Off[T])
	if T > 0 {
		// Scatter: next[x] is where the next record of the template with
		// registry index x goes. Records are visited in ingest order, which
		// Finalize's stable sort keeps among a group's ties — the order
		// window.Frame defines for a group.
		next := make([]int32, c.ordered[T-1].Meta.Index+1)
		for i, ts := range c.ordered {
			next[ts.Meta.Index] = f.Off[i]
		}
		for _, chunk := range c.log {
			for i := range chunk {
				r := &chunk[i]
				k := next[r.TemplateIdx]
				f.Arrival[k], f.Response[k] = r.ArrivalMs, r.ResponseMs
				next[r.TemplateIdx] = k + 1
			}
		}
	}
	f.Finalize()
	return f
}

// SnapshotOfFrame returns f: the window's one type is window.Frame. It
// stays for benchmark/, which still names it.
func SnapshotOfFrame(f *window.Frame) *window.Frame { return f }

// Records returns the number of raw query records in this collector's
// window log (throttled statements are counted in the Throttled series
// instead). The fleet exports it per window.
func (c *Collector) Records() int64 {
	c.lock(false)
	defer c.mu.Unlock()
	return c.records
}
