package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"testing"

	"pinsql/internal/dbsim"
)

// WriteTraceData writes a record/metric slice pair as a trace over
// [fromMs, toMs), chopping them into dense per-second batches first.
func WriteTraceData(w io.Writer, fromMs, toMs int64, recs []dbsim.LogRecord, rows []dbsim.SecondMetrics) error {
	return WriteTrace(w, fromMs, toMs, NewSliceSource(fromMs, toMs, recs, rows))
}

// OpenTrace reads the trace header from r (gzip-compressed or plain) and
// returns a dense source over the trace's bounds. The caller keeps
// ownership of r; Close does not close it.
func OpenTrace(r io.Reader) (*TraceSource, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("ingest: open trace: %w", err)
		}
		return newTraceSource(zr)
	}
	return newTraceSource(br)
}

func traceFixture() ([]dbsim.LogRecord, []dbsim.SecondMetrics) {
	recs := []dbsim.LogRecord{
		{TemplateID: "AB12CD34", SQL: "SELECT * FROM orders WHERE id = ?", Table: "orders", ArrivalMs: 100, ResponseMs: 250.5},
		{SQL: "UPDATE orders SET x = 1", Table: "orders", Kind: dbsim.KindUpdate, ArrivalMs: 900, ResponseMs: 1700, LockWaitMs: 120, ExaminedRows: 42},
		{SQL: "SELECT 1", ArrivalMs: 3100, ResponseMs: 10, Throttled: true},
		{SQL: "DELETE FROM t", Kind: dbsim.KindDelete, Table: "t", ArrivalMs: 4200, ResponseMs: 300, TimedOut: true},
	}
	rows := []dbsim.SecondMetrics{
		{Second: 0, ActiveSession: 2, AvgActiveSession: 1.5, CPUUsage: 40, QPS: 2},
		{Second: 2, ActiveSession: 1, IOPSUsage: 12.5, RowLockWaits: 1},
		{Second: 4, ActiveSession: 3, MDLWaits: 2},
	}
	return recs, rows
}

func TestTraceRoundTrip(t *testing.T) {
	recs, rows := traceFixture()
	var buf bytes.Buffer
	if err := WriteTraceData(&buf, 0, 5000, recs, rows); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != 0x1f || buf.Bytes()[1] != 0x8b {
		t.Fatal("trace is not gzip-framed")
	}

	src, err := OpenTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if from, to := src.Bounds(); from != 0 || to != 5000 {
		t.Fatalf("Bounds = (%d, %d), want (0, 5000)", from, to)
	}

	want := NewSliceSource(0, 5000, recs, rows)
	var sec int64
	for {
		wb, werr := want.Next()
		gb, gerr := src.Next()
		if (werr == io.EOF) != (gerr == io.EOF) {
			t.Fatalf("EOF mismatch at second %d: want %v, got %v", sec, werr, gerr)
		}
		if werr == io.EOF {
			break
		}
		if werr != nil || gerr != nil {
			t.Fatal(werr, gerr)
		}
		if wb.Second != gb.Second || wb.Last != gb.Last {
			t.Fatalf("second %d: batch shape (%d,%v) vs (%d,%v)", sec, wb.Second, wb.Last, gb.Second, gb.Last)
		}
		if !sameRecords(wb.Records, gb.Records) {
			t.Fatalf("second %d: records differ\nwant %+v\ngot  %+v", sec, wb.Records, gb.Records)
		}
		if !sameMetrics(wb.Metrics, gb.Metrics) {
			t.Fatalf("second %d: metrics differ\nwant %+v\ngot  %+v", sec, wb.Metrics, gb.Metrics)
		}
		sec++
	}
	if st := src.Stats(); st.Records != int64(len(recs)) || st.ParseErrors != 0 {
		t.Fatalf("Stats = %+v, want %d records, 0 errors", st, len(recs))
	}
}

func sameRecords(a, b []dbsim.LogRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameMetrics(a, b []dbsim.SecondMetrics) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestTraceUncompressedAndMalformed(t *testing.T) {
	raw := `{"format":"pinsql-trace","version":1,"from_ms":0,"to_ms":2000}
{"t":"r","rec":{"SQL":"SELECT 1","ArrivalMs":100,"ResponseMs":50}}
this is not json
{"t":"x"}
{"t":"m","met":{"Second":1,"ActiveSession":4}}
`
	src, err := OpenTrace(bytes.NewReader([]byte(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var nrec, nmet int
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		nrec += len(b.Records)
		nmet += len(b.Metrics)
	}
	if nrec != 1 || nmet != 1 {
		t.Fatalf("got %d records, %d metrics; want 1 and 1", nrec, nmet)
	}
	if st := src.Stats(); st.ParseErrors != 2 {
		t.Fatalf("ParseErrors = %d, want 2 (bad json, unknown type)", st.ParseErrors)
	}
}

func TestTraceHeaderValidation(t *testing.T) {
	cases := []string{
		``,
		`{"format":"something-else","version":1}`,
		`{"format":"pinsql-trace","version":99}`,
		`{"format":"pinsql-trace","version":1,"from_ms":10,"to_ms":5}`,
		`garbage`,
	}
	for _, c := range cases {
		if _, err := OpenTrace(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("OpenTrace(%q) accepted a bad header", c)
		}
	}
}
