package ingest

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"pinsql/internal/dbsim"
)

// The pinsql trace format is the system's canonical interchange encoding:
// a gzip-compressed JSONL stream. The first line is a header object
//
//	{"format":"pinsql-trace","version":1,"from_ms":...,"to_ms":...}
//
// followed by one object per event, in emission order:
//
//	{"t":"r","rec":{...dbsim.LogRecord...}}   — one query-log record
//	{"t":"m","met":{...dbsim.SecondMetrics...}} — one per-second metric row
//
// Timestamps are absolute trace milliseconds; metric rows carry absolute
// seconds. The header bounds define the dense timeline, so a reader can
// reproduce empty seconds exactly — a written trace round-trips to the
// identical batch sequence without a replay clock.

const (
	traceFormat  = "pinsql-trace"
	traceVersion = 1
)

type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	FromMs  int64  `json:"from_ms"`
	ToMs    int64  `json:"to_ms"`
}

type traceLine struct {
	T   string               `json:"t"`
	Rec *dbsim.LogRecord     `json:"rec,omitempty"`
	Met *dbsim.SecondMetrics `json:"met,omitempty"`
}

// WriteTrace drains src and writes it as a gzip trace covering
// [fromMs, toMs). The source's batches are encoded in order, records
// before metric rows within each second.
func WriteTrace(w io.Writer, fromMs, toMs int64, src Source) error {
	zw := gzip.NewWriter(w)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(traceHeader{Format: traceFormat, Version: traceVersion, FromMs: fromMs, ToMs: toMs}); err != nil {
		return err
	}
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := range b.Records {
			if err := enc.Encode(traceLine{T: "r", Rec: &b.Records[i]}); err != nil {
				return err
			}
		}
		for i := range b.Metrics {
			if err := enc.Encode(traceLine{T: "m", Met: &b.Metrics[i]}); err != nil {
				return err
			}
		}
		if b.Last {
			break
		}
	}
	return zw.Close()
}

// TraceSource streams a pinsql trace back as dense batches over the
// header's bounds. Event lines are expected in emission order (the writer
// guarantees it); stragglers older than the current second are clamped
// into it, mirroring the chop contract. Malformed lines are counted and
// skipped.
//
// Lines in the writer's own byte shape are decoded positionally
// (decodeTraceLine); the header and every other line go through
// encoding/json, which defines the format.
//
// A batch's records and metric rows live in one buffer each, which the
// next second overwrites.
type TraceSource struct {
	r    *bufio.Scanner
	hdr  traceHeader
	cur  int64 // next dense second to emit (absolute)
	recs []dbsim.LogRecord
	mets []dbsim.SecondMetrics

	ev    traceEvent // the event last scanned
	held  bool       // ev belongs to a later second than the batch just emitted
	line  lineState  // decodeTraceLine's unescape buffer and name table
	eof   bool
	stats Stats
}

// newTraceSource reads the header from r, which is already decompressed and
// needs no buffering beyond the scanner's own.
func newTraceSource(r io.Reader) (*TraceSource, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("ingest: trace header: %w", err)
		}
		return nil, fmt.Errorf("ingest: trace header: empty input")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("ingest: trace header: %w", err)
	}
	if hdr.Format != traceFormat {
		return nil, fmt.Errorf("ingest: trace header: format %q, want %q", hdr.Format, traceFormat)
	}
	if hdr.Version != traceVersion {
		return nil, fmt.Errorf("ingest: trace header: version %d, want %d", hdr.Version, traceVersion)
	}
	if hdr.ToMs < hdr.FromMs {
		return nil, fmt.Errorf("ingest: trace header: to_ms %d < from_ms %d", hdr.ToMs, hdr.FromMs)
	}
	return &TraceSource{r: sc, hdr: hdr, cur: hdr.FromMs / 1000}, nil
}

// Next implements Source.
func (t *TraceSource) Next() (Batch, error) {
	toSec := (t.hdr.ToMs + 999) / 1000
	if t.cur >= toSec {
		return Batch{}, io.EOF
	}
	b := Batch{Second: t.cur, Records: t.recs[:0], Metrics: t.mets[:0]}
	lastSec := toSec - 1
	for t.scanEvent() {
		ev := &t.ev
		sec := ev.met.Second
		if ev.isRec {
			sec = EmissionMs(ev.rec) / 1000
		}
		if sec > t.cur && t.cur < lastSec {
			// Belongs to a later second: hold it and emit this batch.
			t.held = true
			return t.emit(b), nil
		}
		// Current second, a straggler clamped into it, or overflow past
		// the final second (clamped into it, like chop). Records are
		// counted here, when they land in an emitted batch.
		if ev.isRec {
			t.stats.Records++
			b.Records = append(b.Records, ev.rec)
		} else {
			b.Metrics = append(b.Metrics, ev.met)
		}
	}
	b.Last = t.cur+1 >= toSec
	return t.emit(b), nil
}

// emit keeps the buffers the batch grew and moves on to the next second.
func (t *TraceSource) emit(b Batch) Batch {
	t.cur++
	t.recs, t.mets = b.Records, b.Metrics
	if len(b.Records) == 0 {
		b.Records = nil // as a second without records always was
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b
}

// scanEvent leaves the next event in t.ev: the held one first, then the
// scanner's lines. It reports false when the stream is exhausted.
func (t *TraceSource) scanEvent() bool {
	if t.held {
		t.held = false
		return true
	}
	for !t.eof && t.r.Scan() {
		if decodeTraceLine(t.r.Bytes(), &t.ev, &t.line) || t.unmarshalEvent(t.r.Bytes()) {
			return true
		}
		t.stats.ParseErrors++
	}
	t.eof = true
	return false
}

// unmarshalEvent decodes a line decodeTraceLine did not take, with
// encoding/json. Malformed, unknown or incomplete lines report false.
func (t *TraceSource) unmarshalEvent(b []byte) bool {
	var line traceLine
	if err := json.Unmarshal(b, &line); err != nil {
		return false
	}
	switch {
	case line.T == "r" && line.Rec != nil:
		t.ev.isRec, t.ev.rec = true, *line.Rec
	case line.T == "m" && line.Met != nil:
		t.ev.isRec, t.ev.met = false, *line.Met
	default:
		return false
	}
	return true
}

// Bounds implements Source: a trace's bounds are exact, from its header.
func (t *TraceSource) Bounds() (int64, int64) { return t.hdr.FromMs, t.hdr.ToMs }

// Stats implements Counting.
func (t *TraceSource) Stats() Stats { return t.stats }

// Close implements Source. The underlying reader belongs to the caller.
func (t *TraceSource) Close() error { return nil }
