// Package ingest feeds the monitoring pipeline from recorded traces.
//
// PinSQL's production deployment (§II, Fig. 2) consumes real slow logs and
// sampled instance metrics; this reproduction historically consumed only
// what dbsim synthesizes. The ingest layer closes that gap with one seam:
// a Source yields the window-agnostic raw stream — query-log records plus
// per-second instance metrics, batched by trace second — and the fleet's
// Player pumps exactly one window's worth of seconds at a time, each
// second's batch whole, into the window's collector. The simulator
// itself is just one Source (SimSource), which is what makes the seam a
// provable no-op for the legacy path: the fingerprint goldens of
// internal/fleet are byte-identical on either side of the refactor.
//
// # The dense-batch contract
//
// A Source emits one Batch per consecutive trace second, starting at its
// lower bound, ending with io.EOF. Seconds with no activity still get a
// (records-less, metrics-less) Batch. Density is what lets the Player stop
// at a window boundary without peeking into the next second — essential
// for the simulator source, where "peeking" would mean simulating window
// w+1 before window w's repairs were applied, and for real traces, where
// it keeps replay single-pass. Raw inputs are rarely dense or ordered;
// adapters stay simple and sparse, and the Replay wrapper densifies,
// re-orders within a bounded slack, and compresses recording gaps.
//
// Records inside a batch are in emission order — the order a database
// writes its slow log, i.e. query completion. Batch concatenation order is
// the collector's insertion order, which is the frame tie-break order, so
// sources must never re-sort across batches.
package ingest

import (
	"io"

	"pinsql/internal/dbsim"
)

// Batch is one trace second's raw stream: the query-log records emitted
// (completed) during that second, in emission order, plus any instance
// metric rows sampled in it. Metric rows carry the absolute trace second
// in SecondMetrics.Second; the Player rewrites them to window-relative
// seconds when it places them.
type Batch struct {
	Second  int64 // absolute trace second (trace epoch, not wall clock)
	Records []dbsim.LogRecord
	Metrics []dbsim.SecondMetrics

	// Last marks the trace's final batch. Sources that know their end
	// (the simulator, in-memory slices, the trace codec) set it so the
	// Player can report exhaustion without pulling past a window
	// boundary — pulling is exactly what the dense contract exists to
	// avoid. Optional: an unmarked source just costs one extra Next call
	// returning io.EOF.
	Last bool
}

// Source is a trace of one database instance: the generalization of what
// the fleet used to get from its hardwired dbsim.Instance. Sources are
// single-consumer and not concurrency-safe; the fleet guarantees one
// reader (the per-instance sim slot).
//
// A batch's Records and Metrics are valid until the next call to Next: a
// source may write the next second into the same storage, and a consumer
// that needs a batch longer copies it. The file adapters do reuse theirs —
// TraceSource one record buffer, SlowLogSource two — and the wrappers that
// hold batches across their input's Next, Replay (its slack pen) and
// SessionSynth (its lookahead), copy each input batch into storage they
// recycle once the batch they returned is dead. SliceSource and SimSource
// hand out slices they never write again.
type Source interface {
	// Next returns the next second's batch, or io.EOF when the trace is
	// exhausted. Batches follow the dense contract: consecutive seconds,
	// one batch each, starting at the source's lower bound. The previous
	// batch's slices may be overwritten.
	Next() (Batch, error)

	// Bounds returns the trace extent in absolute trace milliseconds,
	// [fromMs, toMs). Streaming sources that cannot know their end ahead
	// of time report best effort — the extent seen so far — which is
	// enough for the lag gauge; exact bounds come from the trace codec's
	// header or a finished parse.
	Bounds() (fromMs, toMs int64)

	// Close releases the underlying input. Closing mid-trace is allowed.
	Close() error
}

// Stats counts a source chain's parsing work. Wrappers (Replay, session
// synthesis) delegate inward so the chain reports its adapter's totals.
type Stats struct {
	Records     int64 // records the source has parsed/emitted
	ParseErrors int64 // malformed inputs counted and skipped
}

// Counting is implemented by sources that track Stats. Optional: the
// Player treats sources without it as error-free.
type Counting interface {
	Stats() Stats
}

// Seeker is implemented by sources that can jump to an absolute trace
// offset without replaying the skipped prefix (SimSource re-derives any
// window from its seed; the trace codec could index). ms must be a window
// boundary in fleet use. Optional: Player.SkipTo drains generic sources.
type Seeker interface {
	SeekMs(ms int64) error
}

// EmissionMs returns the instant a record enters the raw stream: query
// completion (arrival + response time), except for throttled statements,
// which the database rejects at arrival. This is the batching key — the
// same clock a real slow log is ordered by.
func EmissionMs(r dbsim.LogRecord) int64 {
	if r.Throttled {
		return r.ArrivalMs
	}
	return r.ArrivalMs + int64(r.ResponseMs)
}

// WindowSeed derives the per-window metric-sampling seed from an instance
// seed: independent of how many windows ran before (crash-resume replays a
// window bit-identically) and spread by a splitmix-style odd multiplier so
// neighbouring windows do not correlate. Moved here from the fleet so
// every simulator-backed source shares one derivation.
func WindowSeed(seed int64, window int) int64 {
	return seed ^ (int64(window)+1)*-0x61c8864680b583eb // 0x9E3779B97F4A7C15 as signed
}

// chop splits an emission-ordered record slice plus metric rows into the
// dense batch sequence covering [fromMs, toMs). Records keep their slice
// order: each is placed at its emission second, clamped monotonically (a
// record never lands before its predecessor's second — float rounding in
// ResponseMs must not reorder the stream) and clamped into the range.
// Metric rows are placed by their absolute Second; rows outside the range
// are dropped.
func chop(fromMs, toMs int64, recs []dbsim.LogRecord, rows []dbsim.SecondMetrics) []Batch {
	fromSec := fromMs / 1000
	seconds := (toMs - fromMs + 999) / 1000
	if seconds <= 0 {
		return nil
	}
	batches := make([]Batch, seconds)
	for i := range batches {
		batches[i].Second = fromSec + int64(i)
	}
	cur := int64(0)
	for _, r := range recs {
		rel := EmissionMs(r)/1000 - fromSec
		if rel < cur {
			rel = cur
		}
		if rel >= seconds {
			rel = seconds - 1
		}
		cur = rel
		batches[rel].Records = append(batches[rel].Records, r)
	}
	for _, m := range rows {
		rel := m.Second - fromSec
		if rel < 0 || rel >= seconds {
			continue
		}
		batches[rel].Metrics = append(batches[rel].Metrics, m)
	}
	return batches
}

// SliceSource serves an in-memory trace: records in emission order plus
// metric rows (absolute seconds), chopped into dense batches over
// [fromMs, toMs). It is the bridge from materialized data — a diagnosed
// frame, a fuzz repro, a test fixture — to the Source seam.
type SliceSource struct {
	fromMs, toMs int64
	batches      []Batch
	pos          int
}

// NewSliceSource builds a SliceSource over [fromMs, toMs). recs must be in
// emission order (sort by EmissionMs first if unsure); rows carry absolute
// trace seconds.
func NewSliceSource(fromMs, toMs int64, recs []dbsim.LogRecord, rows []dbsim.SecondMetrics) *SliceSource {
	return &SliceSource{
		fromMs:  fromMs,
		toMs:    toMs,
		batches: chop(fromMs, toMs, recs, rows),
	}
}

// Next implements Source.
func (s *SliceSource) Next() (Batch, error) {
	if s.pos >= len(s.batches) {
		return Batch{}, io.EOF
	}
	b := s.batches[s.pos]
	s.pos++
	b.Last = s.pos == len(s.batches)
	return b, nil
}

// Bounds implements Source; SliceSource bounds are exact.
func (s *SliceSource) Bounds() (int64, int64) { return s.fromMs, s.toMs }

// Close implements Source.
func (s *SliceSource) Close() error { return nil }

// maxLineBytes bounds a single input line across every textual adapter:
// multi-megabyte statements are real in slow logs, but an unbounded line
// is an attack on memory.
const maxLineBytes = 4 * 1024 * 1024
