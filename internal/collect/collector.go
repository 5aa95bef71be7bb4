package collect

import (
	"math"
	"sort"
	"sync"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// TemplateSeries is the aggregated view of one SQL template over the
// collection window: per-second #execution, total response time and total
// examined rows, produced by the sum/count aggregation of §IV-A.
type TemplateSeries struct {
	Meta TemplateMeta

	Count     timeseries.Series // #execution per second
	SumRT     timeseries.Series // Σ tres per second, milliseconds
	SumRows   timeseries.Series // Σ #examined_rows per second
	Throttled timeseries.Series // statements rejected by a throttle rule

	// sealed marks the live series as referenced by the collector's last
	// sealed frame: the next aggregate mutation clones them first
	// (copy-on-seal), so sealed frames stay immutable without recopying
	// untouched templates at every seal.
	sealed bool
	// sealPos is 1 + this template's position in the last sealed frame
	// (0 = not in it): the delta build fetches a clean group's
	// already-sorted column from there instead of re-sorting its tail.
	sealPos int32

	// pos is the template's current position in its collector's frame
	// order, and obs its observation tail — one lookup per record reaches
	// the series, the tail and the position together.
	pos int
	obs obsColumns
}

// touch prepares the series for mutation: if the last sealed frame still
// references them, fresh copies replace them first.
func (ts *TemplateSeries) touch() {
	if !ts.sealed {
		return
	}
	ts.Count = ts.Count.Clone()
	ts.SumRT = ts.SumRT.Clone()
	ts.SumRows = ts.SumRows.Clone()
	ts.Throttled = ts.Throttled.Clone()
	ts.sealed = false
}

// MeanRT returns the average response time per executed statement over the
// whole window, in milliseconds.
func (ts *TemplateSeries) MeanRT() float64 {
	n := ts.Count.Sum()
	if n == 0 {
		return 0
	}
	return ts.SumRT.Sum() / n
}

// MeanRows returns the average examined rows per executed statement.
func (ts *TemplateSeries) MeanRows() float64 {
	n := ts.Count.Sum()
	if n == 0 {
		return 0
	}
	return ts.SumRows.Sum() / n
}

// Snapshot is the assembled data of one collection window: everything the
// diagnosis pipeline consumes.
type Snapshot struct {
	Topic   string
	StartMs int64
	Seconds int

	Templates []*TemplateSeries

	// Instance performance metrics (Definition II.4), one sample/second.
	ActiveSession timeseries.Series // SHOW STATUS samples — the headline metric
	AvgSession    timeseries.Series
	CPUUsage      timeseries.Series
	IOPSUsage     timeseries.Series
	MemUsage      timeseries.Series
	QPS           timeseries.Series
	RowLockWaits  timeseries.Series
	MDLWaits      timeseries.Series

	// byID is the lazily built ID→series index behind Template; it sits
	// on the repair and fig8 hot paths, which resolve templates by ID per
	// suggestion.
	byIDOnce sync.Once
	byID     map[sqltemplate.ID]*TemplateSeries
}

// Template returns the series for a template ID, or nil. The lookup index
// is built once on first use; callers must not grow s.Templates afterwards.
func (s *Snapshot) Template(id sqltemplate.ID) *TemplateSeries {
	s.byIDOnce.Do(func() {
		m := make(map[sqltemplate.ID]*TemplateSeries, len(s.Templates))
		for _, ts := range s.Templates {
			if _, dup := m[ts.Meta.ID]; !dup { // first match wins, as the linear scan did
				m[ts.Meta.ID] = ts
			}
		}
		s.byID = m
	})
	return s.byID[id]
}

// metricSet is the live per-second instance metric series, populated row
// by row during ingestion. set is the single bounds-checked placement
// point: Snapshot and Frame previously each re-copied the accumulated rows
// with their own silent `i >= seconds` truncation; now rows land in their
// final columnar form exactly once.
type metricSet struct {
	ActiveSession timeseries.Series
	AvgSession    timeseries.Series
	CPUUsage      timeseries.Series
	IOPSUsage     timeseries.Series
	MemUsage      timeseries.Series
	QPS           timeseries.Series
	RowLockWaits  timeseries.Series
	MDLWaits      timeseries.Series
}

func newMetricSet(seconds int) metricSet {
	return metricSet{
		ActiveSession: make(timeseries.Series, seconds),
		AvgSession:    make(timeseries.Series, seconds),
		CPUUsage:      make(timeseries.Series, seconds),
		IOPSUsage:     make(timeseries.Series, seconds),
		MemUsage:      make(timeseries.Series, seconds),
		QPS:           make(timeseries.Series, seconds),
		RowLockWaits:  make(timeseries.Series, seconds),
		MDLWaits:      make(timeseries.Series, seconds),
	}
}

func (m *metricSet) clone() metricSet {
	return metricSet{
		ActiveSession: m.ActiveSession.Clone(),
		AvgSession:    m.AvgSession.Clone(),
		CPUUsage:      m.CPUUsage.Clone(),
		IOPSUsage:     m.IOPSUsage.Clone(),
		MemUsage:      m.MemUsage.Clone(),
		QPS:           m.QPS.Clone(),
		RowLockWaits:  m.RowLockWaits.Clone(),
		MDLWaits:      m.MDLWaits.Clone(),
	}
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

// noDirtyObs is the dirty-watermark sentinel: no observation group has
// changed since the last seal.
const noDirtyObs = math.MaxInt

// Collector ingests the raw query-log stream and instance metrics of one
// database instance over a fixed window, producing per-template aggregates
// and archiving compact records in the log store.
//
// Frame maintenance is incremental: observation columns accumulate in
// per-template tails grown in place during Ingest, and each Frame call
// seals a new immutable frame by patching only what changed since the
// previous seal — the dirty suffix of the observation columns (tracked by
// a minimum-position watermark), the aggregate series of touched templates
// (copy-on-seal), and the live metric series (also copy-on-seal). A warm
// close therefore allocates O(new records), not O(window).
//
// Lock order: c.mu → the registry's lock → the store's locks. IngestBatch
// interns (persistence hook included) and appends to the store under c.mu;
// neither the registry nor a store ever calls back into a collector.
type Collector struct {
	mu       sync.Mutex
	topic    string
	startMs  int64
	seconds  int
	registry *Registry
	store    logstore.Backend

	// templates resolves a template ID to its window state: a pre-digested
	// record reaches the shared registry only on first sight in the window.
	templates map[sqltemplate.ID]*TemplateSeries

	// ordered mirrors templates in ascending Meta.Index order — the
	// frame's template-position order — maintained by insertion as new
	// templates intern, so sealing never re-sorts.
	ordered []*TemplateSeries

	// archive is the batch of store records IngestBatch assembles, reused.
	archive []logstore.Record

	// met holds the live metric series; metSealed marks them as referenced
	// by the last sealed frame (copy-on-seal, like TemplateSeries.sealed).
	// metricsLen is the logical row count of the positional IngestMetrics
	// path: row i of accumulated calls lands at window second i.
	met        metricSet
	metSealed  bool
	metricsLen int

	records int64 // raw query records archived to the store

	// frame is the last sealed frame; frameValid reports that nothing was
	// ingested since its seal, so Frame() returns it unchanged. dirtyObs
	// is the smallest frame position whose observation group changed since
	// that seal (noDirtyObs when none), and tsetChanged reports templates
	// added since — both reset at seal.
	frame       *window.Frame
	frameValid  bool
	dirtyObs    int
	tsetChanged bool
}

// obsColumns is one template's in-progress observation columns: the same
// records the store archives, appended in log-store insertion order during
// ingest, so Frame() never re-scans the store. Tails are append-only and
// never sorted in place: a seal copies the tail into the frame column and
// sorts the copy. dirty marks appends since the last seal: only dirty
// groups are re-sorted at seal; clean groups copy their sorted form from
// the previous frame.
type obsColumns struct {
	arrival  []int64
	response []float64
	dirty    bool
}

// NewCollector creates a collector for the window [startMs, endMs) on the
// given topic (instance name). registry and store may be shared across
// collectors; nil values create private ones. The store may be any
// logstore.Backend — the volatile in-memory store or the durable segment
// store (logstore/segment).
func NewCollector(topic string, startMs, endMs int64, registry *Registry, store logstore.Backend) *Collector {
	if registry == nil {
		registry = NewRegistry()
	}
	if store == nil {
		store = logstore.New(0)
	}
	seconds := int((endMs - startMs + 999) / 1000)
	return &Collector{
		topic:     topic,
		startMs:   startMs,
		seconds:   seconds,
		registry:  registry,
		store:     store,
		templates: make(map[sqltemplate.ID]*TemplateSeries),
		met:       newMetricSet(seconds),
		dirtyObs:  noDirtyObs,
	}
}

// Registry returns the template registry backing this collector.
func (c *Collector) Registry() *Registry { return c.registry }

// Store returns the log store backing this collector.
func (c *Collector) Store() logstore.Backend { return c.store }

// Sink returns a dbsim.LogSink that feeds this collector; plug it directly
// into a simulation run.
func (c *Collector) Sink() dbsim.LogSink { return c.Ingest }

// insertOrdered places a freshly interned template into the position-order
// mirror and lowers the dirty watermark to its insertion point: every
// position at or after it shifts, so the seal rebuilds that suffix.
func (c *Collector) insertOrdered(ts *TemplateSeries) {
	pos := sort.Search(len(c.ordered), func(i int) bool {
		return c.ordered[i].Meta.Index > ts.Meta.Index
	})
	c.ordered = append(c.ordered, nil)
	copy(c.ordered[pos+1:], c.ordered[pos:])
	c.ordered[pos] = ts
	for i := pos; i < len(c.ordered); i++ {
		c.ordered[i].pos = i
	}
	c.tsetChanged = true
	if pos < c.dirtyObs {
		c.dirtyObs = pos
	}
}

// Ingest consumes one query-log record: IngestBatch of one.
func (c *Collector) Ingest(rec dbsim.LogRecord) {
	c.IngestBatch([]dbsim.LogRecord{rec})
}

// seriesLocked returns the window state of the record's template, creating
// it on first sight. Raw-SQL records intern per record (the registry's
// fingerprint index and its hit counters see every one of them).
func (c *Collector) seriesLocked(rec *dbsim.LogRecord) *TemplateSeries {
	if id := sqltemplate.ID(rec.TemplateID); id != "" {
		if ts, ok := c.templates[id]; ok {
			return ts
		}
	}
	meta := c.registry.intern(rec)
	ts, ok := c.templates[meta.ID]
	if !ok {
		ts = &TemplateSeries{
			Meta:      meta,
			Count:     make(timeseries.Series, c.seconds),
			SumRT:     make(timeseries.Series, c.seconds),
			SumRows:   make(timeseries.Series, c.seconds),
			Throttled: make(timeseries.Series, c.seconds),
		}
		c.templates[meta.ID] = ts
		c.insertOrdered(ts)
	}
	return ts
}

// IngestBatch consumes query-log records in order under one acquisition of
// the collector lock; recs is not retained. Records outside the window are
// skipped (integer division would round −1..−999 ms up to second 0).
func (c *Collector) IngestBatch(recs []dbsim.LogRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	archive := c.archive[:0]
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
		ts.touch()
		c.frameValid = false
		if rec.Throttled {
			ts.Throttled[sec]++
			continue
		}
		ts.Count[sec]++
		ts.SumRT[sec] += rec.ResponseMs
		ts.SumRows[sec] += float64(rec.ExaminedRows)
		c.records++

		// Observation columns for the window frame: the same record the
		// store archives below, in the same order.
		ts.obs.arrival = append(ts.obs.arrival, rec.ArrivalMs)
		ts.obs.response = append(ts.obs.response, rec.ResponseMs)
		ts.obs.dirty = true
		if ts.pos < c.dirtyObs {
			c.dirtyObs = ts.pos
		}
		archive = append(archive, logstore.Record{
			TemplateIdx:  ts.Meta.Index,
			ArrivalMs:    rec.ArrivalMs,
			ResponseMs:   rec.ResponseMs,
			ExaminedRows: rec.ExaminedRows,
		})
	}
	// Raw records for the log store (session estimation needs per-query
	// start and response times, §IV-C). Loose append: records are emitted
	// at completion, so lock-delayed statements arrive far out of arrival
	// order. Appended under c.mu so the column order above always equals
	// the store's insertion order — the tie-break order of a frame's
	// observation groups.
	if len(archive) > 0 {
		c.store.AppendLooseBatch(c.topic, archive)
	}
	c.archive = archive[:0]
}

// touchMetricsLocked prepares the metric series for mutation, cloning them
// first if the last sealed frame still references them.
func (c *Collector) touchMetricsLocked() {
	if c.metSealed {
		c.met = c.met.clone()
		c.metSealed = false
	}
}

// IngestMetrics stores the instance's per-second performance metrics.
//
// Contract (audited for the ingest layer): placement is positional, not
// keyed — row i of the accumulated calls lands at window second i and the
// rows' Second fields are ignored. That is exactly right for stacking
// multiple simulator runs into one window (each dbsim run's rows are
// 0-based, as in the Fig. 8 scripted scenario), and exactly wrong for
// real samplers, whose rows are sparse and sometimes double-reported:
// a gap would shift every later row one second early. Samplers and the
// trace replay path must use IngestMetricsAt.
func (c *Collector) IngestMetrics(rows []dbsim.SecondMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(rows) > 0 {
		c.touchMetricsLocked()
	}
	for _, m := range rows {
		c.met.set(c.metricsLen, m)
		c.metricsLen++
	}
	c.frameValid = false
}

// IngestMetricsAt stores per-second performance metrics keyed by each
// row's window-relative Second: gaps stay zero rows, a duplicated second
// keeps the last row, rows outside [0, seconds) are dropped. For the
// dense 0-based rows the simulator produces this is bit-identical to
// IngestMetrics; for sparse sampler output it places every row at its
// actual second.
func (c *Collector) IngestMetricsAt(rows []dbsim.SecondMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range rows {
		if m.Second < 0 || m.Second >= int64(c.seconds) {
			continue
		}
		c.touchMetricsLocked()
		c.met.set(int(m.Second), m)
		// Keep the positional path's cursor consistent with the
		// accumulated-rows semantics: the next IngestMetrics row lands
		// after the highest second placed so far.
		if n := int(m.Second) + 1; n > c.metricsLen {
			c.metricsLen = n
		}
	}
	c.frameValid = false
}

// Snapshot assembles the aggregated window view. It is safe to call while
// ingestion continues; the returned series are copies.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()

	met := c.met.clone()
	snap := &Snapshot{
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
	// c.ordered is already in the deterministic registry-index order.
	snap.Templates = make([]*TemplateSeries, 0, len(c.ordered))
	for _, ts := range c.ordered {
		snap.Templates = append(snap.Templates, &TemplateSeries{
			Meta:      ts.Meta,
			Count:     ts.Count.Clone(),
			SumRT:     ts.SumRT.Clone(),
			SumRows:   ts.SumRows.Clone(),
			Throttled: ts.Throttled.Clone(),
		})
	}
	return snap
}

// Frame seals (and caches) the collection window as a columnar
// window.Frame — per-template aggregates, observation columns grouped by
// template position, the metric series, and the ByID permutation. The
// frame is built from data accumulated during Ingest; the log store is
// never re-scanned.
//
// The seal is a delta build: observation groups below the dirty watermark
// are copied wholesale from the previous (immutable) frame, only groups at
// or above it are re-materialized from their tails, and aggregate/metric
// series are handed out by reference under the copy-on-seal protocol —
// the live copies are cloned on the next mutation, never at seal. Sealed
// frames are immutable; holding one across further ingestion is safe.
func (c *Collector) Frame() *window.Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frame != nil && c.frameValid {
		return c.frame
	}
	f := c.sealLocked()
	c.frame = f
	c.frameValid = true
	return f
}

// sealLocked builds the next immutable frame from the previous one plus
// the dirty state accumulated since its seal.
func (c *Collector) sealLocked() *window.Frame {
	prev := c.frame
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
	}
	c.metSealed = true

	dirty := c.dirtyObs
	if prev == nil {
		dirty = 0
	}
	if dirty > T {
		dirty = T
	}

	if prev != nil && !c.tsetChanged && dirty == T {
		// No observation changed: the columns of the previous frame are
		// exactly right — share them.
		f.Off, f.Arrival, f.Response = prev.Off, prev.Arrival, prev.Response
	} else {
		total := 0
		for _, ts := range c.ordered {
			total += len(ts.obs.arrival)
		}
		f.Off = make([]int32, T+1)
		f.Arrival = make([]int64, total)
		f.Response = make([]float64, total)

		if dirty > 0 {
			// Positions below the watermark are untouched since the last
			// seal: identical groups at identical offsets (template
			// inserts always lower the watermark to the insertion point,
			// so the prefix's positions still name the same templates).
			n := int(prev.Off[dirty])
			copy(f.Arrival[:n], prev.Arrival[:n])
			copy(f.Response[:n], prev.Response[:n])
			copy(f.Off[:dirty+1], prev.Off[:dirty+1])
		}
		for pos := dirty; pos < T; pos++ {
			ts := c.ordered[pos]
			col := &ts.obs
			off := int(f.Off[pos])
			end := off + len(col.arrival)
			if !col.dirty && prev != nil && ts.sealPos > 0 {
				// Clean group above the watermark (only its position
				// shifted): its sorted column already exists in the
				// previous frame — copy it instead of re-sorting.
				plo := int(prev.Off[ts.sealPos-1])
				copy(f.Arrival[off:end], prev.Arrival[plo:plo+len(col.arrival)])
				copy(f.Response[off:end], prev.Response[plo:plo+len(col.arrival)])
			} else if end > off {
				copy(f.Arrival[off:end], col.arrival)
				copy(f.Response[off:end], col.response)
				window.SortObsGroup(f.Arrival[off:end], f.Response[off:end])
				col.dirty = false
			}
			f.Off[pos+1] = int32(end)
		}
	}

	f.Templates = make([]window.Template, T)
	for i, ts := range c.ordered {
		f.Templates[i] = window.Template{
			Meta:      window.Meta(ts.Meta),
			Count:     ts.Count,
			SumRT:     ts.SumRT,
			SumRows:   ts.SumRows,
			Throttled: ts.Throttled,
		}
		ts.sealed = true
		ts.sealPos = int32(i) + 1
	}

	if prev != nil && !c.tsetChanged {
		f.FinalizeShared(prev)
	} else {
		f.FinalizeSorted()
	}
	c.dirtyObs = noDirtyObs
	c.tsetChanged = false
	return f
}

// SnapshotOfFrame derives a Snapshot view from a frame for code that still
// speaks the legacy aggregate type (the anomaly detector's NewCase, repair
// suggestion rules, Top-SQL baselines). The snapshot shares the frame's
// series — treat it as read-only; mutating callers must use
// Collector.Snapshot, which clones.
func SnapshotOfFrame(f *window.Frame) *Snapshot {
	snap := &Snapshot{
		Topic:         f.Topic,
		StartMs:       f.StartMs,
		Seconds:       f.Seconds,
		ActiveSession: f.ActiveSession,
		AvgSession:    f.AvgSession,
		CPUUsage:      f.CPUUsage,
		IOPSUsage:     f.IOPSUsage,
		MemUsage:      f.MemUsage,
		QPS:           f.QPS,
		RowLockWaits:  f.RowLockWaits,
		MDLWaits:      f.MDLWaits,
		Templates:     make([]*TemplateSeries, len(f.Templates)),
	}
	for i := range f.Templates {
		t := &f.Templates[i]
		snap.Templates[i] = &TemplateSeries{
			Meta:      TemplateMeta(t.Meta),
			Count:     t.Count,
			SumRT:     t.SumRT,
			SumRows:   t.SumRows,
			Throttled: t.Throttled,
		}
	}
	return snap
}

// Records returns the number of raw query records this collector has
// archived to the log store (throttled statements are counted in the
// Throttled series instead). The fleet exports it per window.
func (c *Collector) Records() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records
}
