package ingest

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"

	"pinsql/internal/dbsim"
)

// WaitEventsSource parses a pg_stat_activity-style wait-event sample
// stream: JSONL, one snapshot of the instance's sessions per line,
//
//	{"ts":"2024-05-12T03:14:15Z","sessions":[
//	  {"pid":4711,"state":"active","wait_event_type":"Lock",
//	   "wait_event":"transactionid","query":"UPDATE orders ...",
//	   "query_start":"2024-05-12T03:14:10Z"},
//	  ...]}
//
// Each snapshot becomes one metric row (so this adapter needs no
// SessionSynth): the active-session count is the snapshot's active
// sessions, and wait-event classes map onto the simulator's metric
// vocabulary — Lock waits count as row-lock waits (relation locks as
// metadata-lock waits), IO waits drive the IOPS-usage gauge and on-CPU
// sessions the CPU-usage gauge, both scaled against waitEventsCores.
//
// Query-log records are reconstructed ASH-style: a (pid, query_start)
// pair that stops appearing has finished, and is emitted as a LogRecord
// whose arrival is query_start and whose completion is the snapshot time
// at which it disappeared (an over-estimate bounded by one sample
// interval). Sessions still live at EOF flush with the final snapshot's
// time. Records carry TemplateID == "" — the collector's registry
// normalizes raw SQL.
//
// Snapshots may be seconds apart and mildly out of order; wrap the
// source in Replay to densify. Malformed lines are counted and skipped.
type WaitEventsSource struct {
	r     *bufio.Scanner
	live  map[liveKey]*liveQuery
	queue []Batch // completed batches not yet handed out
	eof   bool
	stats Stats
	ord   int64 // snapshot ordinal, for disappearance detection

	firstMs, lastMs int64
}

// waitEventsCores scales on-CPU / in-IO session counts to utilization
// percentages: usage = min(100, sessions*100/waitEventsCores).
const waitEventsCores = 8

type liveKey struct {
	pid     int64
	startMs int64
}

type liveQuery struct {
	sql      string
	lastMs   int64 // snapshot time the query was last seen
	lockMs   float64
	lastSeen int64 // snapshot ordinal, for disappearance detection
}

type weSample struct {
	TS       string      `json:"ts"`
	Sessions []weSession `json:"sessions"`
}

type weSession struct {
	PID        int64  `json:"pid"`
	State      string `json:"state"`
	WaitType   string `json:"wait_event_type"`
	WaitEvent  string `json:"wait_event"`
	Query      string `json:"query"`
	QueryStart string `json:"query_start"`
}

// NewWaitEventsSource wraps r. The reader stays owned by the caller.
func NewWaitEventsSource(r io.Reader) *WaitEventsSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &WaitEventsSource{r: sc, live: make(map[liveKey]*liveQuery)}
}

// Next implements Source: one batch per snapshot line.
func (s *WaitEventsSource) Next() (Batch, error) {
	for len(s.queue) == 0 && !s.eof {
		if !s.r.Scan() {
			s.eof = true
			s.flushLive(s.lastMs)
			break
		}
		s.sample(s.r.Bytes())
	}
	if len(s.queue) == 0 {
		return Batch{}, io.EOF
	}
	b := s.queue[0]
	s.queue = s.queue[1:]
	b.Last = s.eof && len(s.queue) == 0
	return b, nil
}

// sample folds one snapshot line into a batch.
func (s *WaitEventsSource) sample(raw []byte) {
	var snap weSample
	if err := json.Unmarshal(raw, &snap); err != nil {
		s.stats.ParseErrors++
		return
	}
	ts, err := time.Parse(time.RFC3339Nano, snap.TS)
	if err != nil {
		s.stats.ParseErrors++
		return
	}
	tMs := ts.UnixMilli()
	if s.firstMs == 0 || tMs < s.firstMs {
		s.firstMs = tMs
	}
	if tMs > s.lastMs {
		s.lastMs = tMs
	}
	s.ord++
	ord := s.ord

	row := dbsim.SecondMetrics{Second: tMs / 1000}
	for _, sess := range snap.Sessions {
		if !strings.EqualFold(sess.State, "active") {
			continue
		}
		row.ActiveSession++
		switch strings.ToLower(sess.WaitType) {
		case "lock":
			if strings.EqualFold(sess.WaitEvent, "relation") {
				row.MDLWaits++
			} else {
				row.RowLockWaits++
			}
		case "io":
			row.IOPSUsage++
		case "", "cpu":
			row.CPUUsage++
		}
		s.track(sess, tMs, ord)
	}
	row.AvgActiveSession = row.ActiveSession
	row.CPUUsage = usagePct(row.CPUUsage, waitEventsCores)
	row.IOPSUsage = usagePct(row.IOPSUsage, waitEventsCores)

	b := Batch{Second: row.Second, Metrics: []dbsim.SecondMetrics{row}}
	b.Records = s.reap(ord, tMs)
	row2 := &b.Metrics[0]
	row2.QPS = len(b.Records)
	s.queue = append(s.queue, b)
}

// track registers or refreshes a live query from one session row.
func (s *WaitEventsSource) track(sess weSession, tMs, ord int64) {
	if sess.PID <= 0 || sess.Query == "" {
		return // metrics-only session: nothing to attribute a record to
	}
	start, err := time.Parse(time.RFC3339Nano, sess.QueryStart)
	if err != nil {
		s.stats.ParseErrors++
		return
	}
	k := liveKey{pid: sess.PID, startMs: start.UnixMilli()}
	q, ok := s.live[k]
	if !ok {
		q = &liveQuery{sql: sess.Query}
		s.live[k] = q
	}
	q.lastMs = tMs
	q.lastSeen = ord
	if strings.EqualFold(sess.WaitType, "lock") {
		// Attribute (at least) one sample interval of lock wait; exact
		// wait durations are not recoverable from snapshots.
		q.lockMs += 1000
	}
}

// reap emits records for live queries that vanished before snapshot ord:
// they completed somewhere in (lastMs, tMs]; tMs is used as the bound.
func (s *WaitEventsSource) reap(ord, tMs int64) []dbsim.LogRecord {
	var recs []dbsim.LogRecord
	var done []liveKey
	for k, q := range s.live {
		if q.lastSeen < ord {
			recs = append(recs, s.record(k, q, tMs))
			done = append(done, k)
		}
	}
	for _, k := range done {
		delete(s.live, k)
	}
	sortRecords(recs)
	return recs
}

// flushLive drains every still-running query at stream end.
func (s *WaitEventsSource) flushLive(tMs int64) {
	if len(s.live) == 0 {
		return
	}
	var recs []dbsim.LogRecord
	for k, q := range s.live {
		recs = append(recs, s.record(k, q, tMs))
	}
	s.live = make(map[liveKey]*liveQuery)
	sortRecords(recs)
	sec := tMs / 1000
	if len(s.queue) > 0 && s.queue[len(s.queue)-1].Second == sec {
		last := &s.queue[len(s.queue)-1]
		last.Records = append(last.Records, recs...)
	} else {
		s.queue = append(s.queue, Batch{Second: sec, Records: recs})
	}
}

func (s *WaitEventsSource) record(k liveKey, q *liveQuery, endMs int64) dbsim.LogRecord {
	s.stats.Records++
	dur := float64(endMs - k.startMs)
	if dur < 0 {
		dur = 0
	}
	sql := strings.ToValidUTF8(q.sql, "�")
	return dbsim.LogRecord{
		SQL:        sql,
		Table:      guessTable(sql),
		Kind:       guessKind(sql),
		ArrivalMs:  k.startMs,
		ResponseMs: dur,
		LockWaitMs: q.lockMs,
	}
}

// sortRecords orders reaped records deterministically (map iteration is
// random): by arrival, then SQL text.
func sortRecords(recs []dbsim.LogRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].ArrivalMs != recs[j].ArrivalMs {
			return recs[i].ArrivalMs < recs[j].ArrivalMs
		}
		return recs[i].SQL < recs[j].SQL
	})
}

func usagePct(sessions float64, cores int) float64 {
	pct := sessions * 100 / float64(cores)
	if pct > 100 {
		pct = 100
	}
	return pct
}

// Bounds implements Source: best-effort, growing as snapshots stream in.
func (s *WaitEventsSource) Bounds() (int64, int64) {
	if s.firstMs == 0 {
		return 0, 0
	}
	return s.firstMs, s.lastMs + 1000
}

// Stats implements Counting.
func (s *WaitEventsSource) Stats() Stats { return s.stats }

// Close implements Source. The underlying reader belongs to the caller.
func (s *WaitEventsSource) Close() error { return nil }
