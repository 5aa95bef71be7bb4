package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"unsafe"

	"pinsql/internal/dbsim"
)

// Every event line WriteTrace emits must take the positional path: a field
// added to LogRecord or SecondMetrics, or a change in how encoding/json
// writes them, would otherwise send every line through json.Unmarshal
// without a test noticing.
func TestTraceLineDecoderTakesWriterOutput(t *testing.T) {
	recs := []dbsim.LogRecord{
		{TemplateID: "AB12CD34", SQL: "SELECT * FROM t WHERE a < 1 AND b > 2 AND c <> '&'", Table: "t", ArrivalMs: 10, ResponseMs: 5.255211280393889, ExaminedRows: 20},
		{SQL: "INSERT INTO `q` VALUES (\"x\\y\", 'tab\there', 'nl\nhere', '\u2028', 'caf\u00e9 \U0001F600', '\x00\x1f')", Table: "q", Kind: dbsim.KindInsert, ArrivalMs: 20, ResponseMs: 1e-7, LockWaitMs: 0.1},
		{SQL: "invalid \xff\xfe utf8", Kind: dbsim.KindDDL, ArrivalMs: 30, ResponseMs: 1e21, Throttled: true},
		{SQL: "", ArrivalMs: 40, ResponseMs: math.SmallestNonzeroFloat64, ExaminedRows: -7, TimedOut: true, LockWaitMs: math.Copysign(0, -1)},
		{SQL: "x", ArrivalMs: 999_999_999_999_999_999, ResponseMs: 0, Kind: -3},
	}
	rows := []dbsim.SecondMetrics{
		{Second: 0, ActiveSession: 5, SampleOffsetMs: 126, AvgActiveSession: 1.229111912062676, CPUUsage: 7.68, IOPSUsage: 1.935, MemUsage: 30.37, QPS: 123, RowLockWaits: 1, MDLWaits: 2, LockTimeouts: 3},
		{Second: 1, ActiveSession: -1.5e-9, QPS: -1},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 0, 2000, &SliceSource{toMs: 2000, batches: []Batch{
		{Second: 0, Records: recs, Metrics: rows[:1]}, {Second: 1, Metrics: rows[1:]},
	}}); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(zr)
	sc.Scan() // header
	var st lineState
	events := 0
	for ; sc.Scan(); events++ {
		var ev traceEvent
		if !decodeTraceLine(sc.Bytes(), &ev, &st) {
			t.Errorf("writer's line refused: %s", sc.Bytes())
			continue
		}
		var want traceLine
		if err := json.Unmarshal(sc.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if ev.isRec && !sameBits(ev.rec, *want.Rec) || !ev.isRec && !sameBits(ev.met, *want.Met) {
			t.Errorf("line %s:\npositional %+v\njson       %+v %+v", sc.Bytes(), ev, want.Rec, want.Met)
		}
	}
	if events != len(recs)+len(rows) {
		t.Fatalf("decoded %d event lines, wrote %d", events, len(recs)+len(rows))
	}
}

// What the positional decoder takes and what it leaves to encoding/json;
// FuzzTraceLine checks that whatever it takes it decodes the same.
func TestTraceLineDecoderShape(t *testing.T) {
	const rec = `{"t":"r","rec":{"TemplateID":"AB12","SQL":"SELECT 1","Table":"t","Kind":0,"ArrivalMs":12,"ResponseMs":5.25,"ExaminedRows":20,"Throttled":false,"TimedOut":false,"LockWaitMs":0}}`
	for _, tc := range []struct {
		old, new string
		take     bool
		sql      string
	}{
		{"", "", true, "SELECT 1"},
		{`SELECT 1`, `a \" b \\ c \/ d \b\f\n\r\t`, true, "a \" b \\ c / d \b\f\n\r\t"},
		{`SELECT 1`, `a \u003c b \u003E c`, true, "a < b > c"},
		{`SELECT 1`, `\ud83d\ude00`, true, "\U0001F600"},
		{`SELECT 1`, `\ud83d x \ude00 \ud83d\u0041`, true, "\ufffd x \ufffd \ufffdA"},
		{`SELECT 1`, "caf\xc3\xa9 \xff", true, "café \ufffd"},
		{`SELECT 1`, "tab\there", false, ""},
		{`SELECT 1`, `\'`, false, ""},
		{`SELECT 1`, `\u12`, false, ""},
		{`"ArrivalMs":12`, `"ArrivalMs":-0`, true, "SELECT 1"},
		{`"ArrivalMs":12`, `"ArrivalMs":1e3`, false, ""},
		{`"ArrivalMs":12`, `"ArrivalMs":01`, false, ""},
		{`"ArrivalMs":12`, `"ArrivalMs":+1`, false, ""},
		{`"ArrivalMs":12`, `"ArrivalMs":9223372036854775807`, false, ""}, // valid, but encoding/json's
		{`"Kind":0`, `"Kind":1.0`, false, ""},
		{`"ResponseMs":5.25`, `"ResponseMs":1e3`, true, "SELECT 1"},
		{`"ResponseMs":5.25`, `"ResponseMs":-0`, true, "SELECT 1"},
		{`"ResponseMs":5.25`, `"ResponseMs":.5`, false, ""},
		{`"ResponseMs":5.25`, `"ResponseMs":5.`, false, ""},
		{`"ResponseMs":5.25`, `"ResponseMs":01.5`, false, ""},
		{`"ResponseMs":5.25`, `"ResponseMs":1e999`, false, ""},
		{`"Kind":0,"ArrivalMs":12`, `"ArrivalMs":12,"Kind":0`, false, ""},
		{`"Kind":0`, `"Kind":0,"Kind":2`, false, ""},
		{`"SQL"`, `"sql"`, false, ""},
		{`"Kind":0`, `"Kind":0,"Extra":1`, false, ""},
		{`"Kind":0`, `"Kind": 0`, false, ""},
		{`0}}`, `0}} `, false, ""},
		{`0}}`, `0}}x`, false, ""},
	} {
		line := strings.Replace(rec, tc.old, tc.new, 1)
		var ev traceEvent
		var st lineState
		got := decodeTraceLine([]byte(line), &ev, &st)
		if got != tc.take {
			t.Errorf("decodeTraceLine = %v, want %v: %s", got, tc.take, line)
		}
		if got && ev.rec.SQL != tc.sql {
			t.Errorf("SQL = %q, want %q: %s", ev.rec.SQL, tc.sql, line)
		}
	}
}

// A refused line still reads as it always did: through encoding/json.
func TestTraceSourceFallsBackToJSON(t *testing.T) {
	trace := `{"format":"pinsql-trace","version":1,"from_ms":0,"to_ms":2000}
{ "t":"r", "rec":{"sql":"SELECT 1","ArrivalMs":100,"ResponseMs":1e1,"Extra":[1]} }
{"t":"r","rec":{"SQL":"a","SQL":"b","ArrivalMs":200}}
{"t":"r","rec":{"ArrivalMs":1.5}}
{"t":"r","rec":null}
not json
{"t":"m","met":{"QPS":7,"Second":1}}
`
	src, err := OpenTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	b0, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b0.Records) != 2 || b0.Records[0].SQL != "SELECT 1" || b0.Records[0].ArrivalMs != 100 || b0.Records[1].SQL != "b" {
		t.Fatalf("second 0: %+v", b0.Records)
	}
	b1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Metrics) != 1 || b1.Metrics[0].QPS != 7 || !b1.Last {
		t.Fatalf("second 1: %+v", b1)
	}
	if st := src.Stats(); st.Records != 2 || st.ParseErrors != 3 {
		t.Fatalf("Stats = %+v, want 2 records and 3 parse errors", st)
	}
}

// A budget of work, not of time: a record line costs its SQL string; its
// TemplateID and Table are the name table's after the first sight.
func TestTraceLineDecoderAllocs(t *testing.T) {
	rec := []byte(`{"t":"r","rec":{"TemplateID":"CB3B1403","SQL":"SELECT qty FROM inventory WHERE sku \u003e 186258","Table":"inventory","Kind":0,"ArrivalMs":3,"ResponseMs":5.255211280393889,"ExaminedRows":20,"Throttled":false,"TimedOut":false,"LockWaitMs":0.25}}`)
	met := []byte(`{"t":"m","met":{"Second":0,"ActiveSession":5,"SampleOffsetMs":126,"AvgActiveSession":1.229111912062676,"CPUUsage":7.681949450391724,"IOPSUsage":1.935,"MemUsage":30.3687335736188,"QPS":123,"RowLockWaits":0,"MDLWaits":0,"LockTimeouts":0}}`)
	var ev traceEvent
	st := lineState{scratch: make([]byte, 0, 256)}
	for _, tc := range []struct {
		line []byte
		max  float64
	}{{rec, 1}, {met, 0}} {
		if got := testing.AllocsPerRun(200, func() {
			if !decodeTraceLine(tc.line, &ev, &st) {
				t.Fatal("refused")
			}
		}); got > tc.max {
			t.Errorf("%.0f allocations for %.40s…, want at most %.0f", got, tc.line, tc.max)
		}
	}
}

// TestTraceSourceInternsNames: every record of a template leaves a trace
// source with its TemplateID in the same storage, and its Table too — what
// the collector's identity table recognises — while the strings stay the
// ones written. The table behind it is bounded in names and in their length:
// past either bound a name is a string of its own, still the right one.
func TestTraceSourceInternsNames(t *testing.T) {
	var recs []dbsim.LogRecord
	for i := 0; i < 3000; i++ {
		recs = append(recs, dbsim.LogRecord{
			TemplateID: fmt.Sprintf("T%02d", i%7), SQL: fmt.Sprintf("SELECT %d", i), Table: fmt.Sprintf("tab%d", i%3),
			ArrivalMs: int64(i), ResponseMs: 1,
		})
	}
	var buf bytes.Buffer
	if err := WriteTraceData(&buf, 0, 3000, recs, nil); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	storage := map[string]*byte{}
	n := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			if want := recs[n]; r.TemplateID != want.TemplateID || r.Table != want.Table || r.SQL != want.SQL {
				t.Fatalf("record %d: %+v, written %+v", n, r, want)
			}
			n++
			for _, name := range []string{r.TemplateID, r.Table} {
				if p, seen := storage[name]; !seen {
					storage[name] = unsafe.StringData(name)
				} else if p != unsafe.StringData(name) {
					t.Fatalf("record %d: %q is in other storage than the first %q", n, name, name)
				}
			}
		}
	}
	if n != len(recs) || len(storage) != 10 {
		t.Fatalf("read %d records, %d names", n, len(storage))
	}

	var st lineState
	long := strings.Repeat("x", maxNameLen+1)
	for _, raw := range []string{long, long, ""} {
		if got := st.name([]byte(raw)); got != raw {
			t.Fatalf("name(%q) = %q", raw, got)
		}
	}
	if len(st.names) != 0 {
		t.Fatalf("the table kept a name of %d bytes or an empty one", len(long))
	}
	for i := 0; i < 2*maxNames; i++ {
		raw := fmt.Sprintf("N%d", i)
		if got := st.name([]byte(raw)); got != raw {
			t.Fatalf("name(%q) = %q", raw, got)
		}
	}
	if len(st.names) != maxNames {
		t.Fatalf("the table holds %d names, bound %d", len(st.names), maxNames)
	}
}
