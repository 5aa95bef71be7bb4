package ingest

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"pinsql/internal/dbsim"
)

// FuzzSlowLogParser holds the slow-log parser to four promises on
// arbitrary input: it never panics, every record it emits carries valid
// UTF-8 SQL (and an empty TemplateID, since interning happens in the
// collector), its batches are the maximal runs of one emission second, and
// whatever it parses survives a serialize→re-parse round trip through the
// trace codec bit-identically. A differential case holds it to the
// string-based parser it replaced (refSlowLog): same records, Stats and
// bounds on every input without one of the three letters whose Unicode case
// folding lands on ASCII, which is where the two differ by design.
func FuzzSlowLogParser(f *testing.F) {
	// Well-formed entry.
	f.Add("# Time: 2023-05-12T03:14:15Z\n# User@Host: a[a] @ h [1.2.3.4]\n# Query_time: 0.5  Lock_time: 0.001 Rows_sent: 1  Rows_examined: 10\nSET timestamp=1683861255;\nSELECT * FROM orders WHERE id = 7;\n")
	// Torn tail: statement cut off at EOF.
	f.Add("# Time: 2023-05-12T03:14:15Z\n# Query_time: 0.5  Lock_time: 0 Rows_sent: 0  Rows_examined: 0\nSET timestamp=1683861255;\nSELECT id FROM orders WHERE\n")
	// Interleaved header: a new entry interrupts an unterminated statement.
	f.Add("# Time: 2023-05-12T03:14:15Z\n# Query_time: 0.2  Lock_time: 0 Rows_sent: 0  Rows_examined: 0\nSET timestamp=1683861255;\nSELECT a, b\n# Time: 2023-05-12T03:14:16Z\n# Query_time: 0.3  Lock_time: 0 Rows_sent: 0  Rows_examined: 0\nSET timestamp=1683861256;\nSELECT 1;\n")
	// Legacy time format, use statement, multi-line SQL.
	f.Add("# Time: 230512  3:14:20\n# Query_time: 2.1  Lock_time: 0 Rows_sent: 1  Rows_examined: 9\nuse shop;\nSELECT COUNT(*)\n  FROM order_items\n WHERE shipped = 0;\n")
	// Restart banner mid-file, bad numbers, bad timestamp, invalid UTF-8.
	f.Add("/usr/sbin/mysqld, Version: 8.0.32 started with:\n# Time: not-a-time\n# Query_time: NaN  Lock_time: -1 Rows_sent: x  Rows_examined: -5\nSELECT \xff\xfe;\n")
	// Empty and header-only inputs.
	f.Add("")
	f.Add("# Time: 2023-05-12T03:14:15Z\n")
	// Unicode white space around keywords, fields and statements; a value
	// that is itself a key; seconds A, B, A; lower-case keywords.
	f.Add("\u00a0# Time: 2023-05-12T03:14:15Z\u2003\n# Query_time:\u00a00.5\u3000Lock_time: Rows_examined: 7 Rows_examined:\nset TIMESTAMP=1683861255 ;\u0085\n\u2028select *\u00a0from\u00a0t\xe2\x80;\u00a0\n")
	f.Add("# Query_time: 0.1\nSET timestamp=10;\nSELECT 1;\n# Query_time: 0.1\nSET timestamp=11;\nSELECT 2;\n# Query_time: 0.1\nSET timestamp=10;\nUSE x;\nupdate `db`.`t` set a=1;\n")
	// Times ParseFloat accepts and no downstream arithmetic can carry.
	f.Add("# Query_time: Inf\nSET timestamp=10;\nSELECT 1;\n# Query_time: 0.1 Lock_time: +infinity\nSET timestamp=10;\nSELECT 2;\n# Query_time: 1e300\nSET timestamp=10;\nSELECT 3;\n")

	f.Fuzz(func(t *testing.T, input string) {
		src := SlowLog(strings.NewReader(input))
		var recs []dbsim.LogRecord
		var minEm, maxEm int64
		for prev, first := int64(0), true; ; first = false {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("scanner error on string input: %v", err)
			}
			if len(b.Records) == 0 || !first && b.Second == prev {
				t.Fatalf("batch of second %d after one of second %d with %d records: not a maximal run", b.Second, prev, len(b.Records))
			}
			prev = b.Second
			for _, r := range b.Records {
				if EmissionMs(r)/1000 != b.Second {
					t.Fatalf("record emitted in second %d sits in the batch of second %d", EmissionMs(r)/1000, b.Second)
				}
				if !utf8.ValidString(r.SQL) {
					t.Fatalf("invalid UTF-8 SQL: %q", r.SQL)
				}
				if !utf8.ValidString(r.Table) {
					t.Fatalf("invalid UTF-8 table: %q", r.Table)
				}
				if r.TemplateID != "" {
					t.Fatalf("parser assigned TemplateID %q", r.TemplateID)
				}
				if !(r.ResponseMs >= 0 && r.ResponseMs < 1<<63) || !(r.LockWaitMs >= 0 && r.LockWaitMs < 1<<63) {
					t.Fatalf("response %v ms, lock wait %v ms: not a time an int64 of milliseconds holds", r.ResponseMs, r.LockWaitMs)
				}
				em := EmissionMs(r)
				if len(recs) == 0 || em < minEm {
					minEm = em
				}
				if len(recs) == 0 || em > maxEm {
					maxEm = em
				}
				recs = append(recs, r)
			}
		}
		st := src.Stats()
		if int64(len(recs)) != st.Records {
			t.Fatalf("emitted %d records, Stats.Records = %d", len(recs), st.Records)
		}
		if !strings.ContainsAny(input, "İıſ") {
			ref := parseRefSlowLog(input)
			if st != ref.stats {
				t.Fatalf("Stats = %+v, the string-based parser's %+v", st, ref.stats)
			}
			if from, to := src.Bounds(); from != ref.fromMs || to != ref.toMs {
				t.Fatalf("Bounds = [%d, %d), the string-based parser's [%d, %d)", from, to, ref.fromMs, ref.toMs)
			}
			for i := range recs {
				if recs[i] != ref.recs[i] {
					t.Fatalf("record %d:\nbyte-level   %+v\nstring-based %+v", i, recs[i], ref.recs[i])
				}
			}
		}
		if len(recs) == 0 {
			return
		}

		// Round trip through the trace codec. Extreme timestamps would
		// make the dense timeline absurdly long; the replay clock exists
		// for those, so bound the codec check to sane spans.
		fromMs := (minEm / 1000) * 1000
		if minEm < 0 {
			return
		}
		toMs := maxEm + 1
		if (toMs-fromMs)/1000 > 100_000 {
			return
		}
		var buf bytes.Buffer
		if err := WriteTraceData(&buf, fromMs, toMs, recs, nil); err != nil {
			t.Fatalf("WriteTraceData: %v", err)
		}
		back, err := OpenTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("OpenTrace of own output: %v", err)
		}
		var got []dbsim.LogRecord
		for {
			b, err := back.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			got = append(got, b.Records...)
		}
		if bst := back.Stats(); bst.ParseErrors != 0 {
			t.Fatalf("re-parse of own trace hit %d parse errors", bst.ParseErrors)
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip lost records: wrote %d, read %d", len(recs), len(got))
		}
		// chop may regroup batches but preserves record order and content.
		for i := range recs {
			if recs[i] != got[i] {
				t.Fatalf("record %d changed in round trip:\nwrote %+v\nread  %+v", i, recs[i], got[i])
			}
		}
	})
}

// FuzzTraceLine pins the positional trace-line decoder to encoding/json:
// whenever it accepts a line, the event it yields equals what
// json.Unmarshal into traceLine yields, and a line json.Unmarshal rejects
// is never accepted.
func FuzzTraceLine(f *testing.F) {
	const rec = `{"t":"r","rec":{"TemplateID":"AB12","SQL":"SELECT 1","Table":"t","Kind":0,"ArrivalMs":12,"ResponseMs":5.25,"ExaminedRows":20,"Throttled":false,"TimedOut":false,"LockWaitMs":0}}`
	const met = `{"t":"m","met":{"Second":3,"ActiveSession":5,"SampleOffsetMs":126,"AvgActiveSession":1.2291,"CPUUsage":7.68,"IOPSUsage":1.935,"MemUsage":30.3,"QPS":123,"RowLockWaits":0,"MDLWaits":0,"LockTimeouts":0}}`
	f.Add([]byte(rec))
	f.Add([]byte(met))
	for _, sub := range [][2]string{
		// String escapes, the ones json.Encoder writes for < and >, both
		// surrogate cases, invalid UTF-8 and a control byte.
		{`SELECT 1`, `a \" b \\ c \/ d \b\f\n\r\t`},
		{`SELECT 1`, `a \u003c b \u003E c \u0026`},
		{`SELECT 1`, `\ud83d\ude00 pair`},
		{`SELECT 1`, `\ud83d lone \ude00 \ud83d\u0041`},
		{`SELECT 1`, `\ud83d`},
		{`SELECT 1`, "caf\xc3\xa9 \xff\xfe \xe2\x82"},
		{`SELECT 1`, "tab\there"},
		{`SELECT 1`, `bad \' escape`},
		{`SELECT 1`, `short \u12`},
		{`SELECT 1`, `open \`},
		// Number grammar: JSON's, not strconv's.
		{`"ArrivalMs":12`, `"ArrivalMs":-0`},
		{`"ArrivalMs":12`, `"ArrivalMs":1e3`},
		{`"ArrivalMs":12`, `"ArrivalMs":01`},
		{`"ArrivalMs":12`, `"ArrivalMs":+1`},
		{`"ArrivalMs":12`, `"ArrivalMs":1.0`},
		{`"ArrivalMs":12`, `"ArrivalMs":9223372036854775807`},
		{`"ArrivalMs":12`, `"ArrivalMs":9223372036854775808`},
		{`"ArrivalMs":12`, `"ArrivalMs":-`},
		{`"Kind":0`, `"Kind":1.0`},
		{`"Kind":0`, `"Kind":"1"`},
		{`"ResponseMs":5.25`, `"ResponseMs":-0`},
		{`"ResponseMs":5.25`, `"ResponseMs":1e3`},
		{`"ResponseMs":5.25`, `"ResponseMs":1E-7`},
		{`"ResponseMs":5.25`, `"ResponseMs":.5`},
		{`"ResponseMs":5.25`, `"ResponseMs":5.`},
		{`"ResponseMs":5.25`, `"ResponseMs":01.5`},
		{`"ResponseMs":5.25`, `"ResponseMs":1e999`},
		{`"ResponseMs":5.25`, `"ResponseMs":0x10`},
		{`"ResponseMs":5.25`, `"ResponseMs":Inf`},
		{`"ResponseMs":5.25`, `"ResponseMs":12345678901234567890`},
		{`"ResponseMs":5.25`, `"ResponseMs":null`},
		{`"Throttled":false`, `"Throttled":true`},
		{`"Throttled":false`, `"Throttled":0`},
		{`"Throttled":false`, `"Throttled":False`},
		// Keys: reordered, duplicated, upper-cased, unknown, missing.
		{`"Kind":0,"ArrivalMs":12`, `"ArrivalMs":12,"Kind":0`},
		{`"Kind":0`, `"Kind":0,"Kind":2`},
		{`"SQL"`, `"sql"`},
		{`"t":"r"`, `"T":"r"`},
		{`"Kind":0`, `"Kind":0,"Extra":[1,{"a":null}]`},
		{`"Table":"t",`, ``},
		{`"t":"r"`, `"t":"m"`},
		{`"t":"r"`, `"t":"x"`},
		{`"rec":{`, `"rec":null,"x":{`},
		// Whitespace inside, bytes after.
		{`"Kind":0`, `"Kind": 0`},
		{`{"t"`, ` {"t"`},
		{`false}}`, `false} }`},
		{`"LockWaitMs":0}}`, `"LockWaitMs":0}} `},
		{`"LockWaitMs":0}}`, `"LockWaitMs":0}}x`},
		{`"LockWaitMs":0}}`, `"LockWaitMs":0}}{}`},
		{`"LockWaitMs":0}}`, `"LockWaitMs":0}`},
	} {
		f.Add([]byte(strings.Replace(rec, sub[0], sub[1], 1)))
	}
	for _, sub := range [][2]string{
		{`"Second":3`, `"Second":-3`},
		{`"QPS":123`, `"QPS":1e2`},
		{`"QPS":123`, `"QPS":99999999999999999999`},
		{`"ActiveSession":5`, `"ActiveSession":-0.0`},
		{`"MDLWaits":0`, `"MDLWaits":0,"MDLWaits":1`},
		{`"met"`, `"rec"`},
	} {
		f.Add([]byte(strings.Replace(met, sub[0], sub[1], 1)))
	}
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"t":"r"}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, line []byte) {
		var ev, again traceEvent
		var st lineState
		orig := append([]byte(nil), line...)
		accepted := decodeTraceLine(line, &ev, &st)
		// Once more, now that the name table holds this line's names.
		if decodeTraceLine(line, &again, &st) != accepted || accepted && !sameBits(again, ev) {
			t.Fatalf("decoded differently the second time: %q", line)
		}
		if !bytes.Equal(line, orig) {
			t.Fatalf("decoder modified its input")
		}
		if !accepted {
			return
		}
		var want traceLine
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("accepted a line encoding/json rejects (%v): %q", err, line)
		}
		switch {
		case ev.isRec:
			if want.T != "r" || want.Rec == nil || want.Met != nil || !sameBits(ev.rec, *want.Rec) {
				t.Fatalf("record line %q:\npositional %+v\njson       %+v", line, ev.rec, want)
			}
		default:
			if want.T != "m" || want.Met == nil || want.Rec != nil || !sameBits(ev.met, *want.Met) {
				t.Fatalf("metric line %q:\npositional %+v\njson       %+v", line, ev.met, want)
			}
		}
	})
}

// sameBits is reflect.DeepEqual that also tells -0 from 0: the values are
// compared as encoding/json would write them back.
func sameBits(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// FuzzSlowLogStamp pins the "# Time:" stamp read from bytes to time.Parse:
// whatever rfc3339Ms accepts, time.Parse with RFC3339Nano accepts as the
// same millisecond, and stampMs, fast path and fallback together, agrees
// with parseSlowLogTime on every input, accepted or refused.
func FuzzSlowLogStamp(f *testing.F) {
	for _, s := range []string{
		"2023-05-12T03:14:15.123456Z", "2023-05-12T03:14:15Z", "2023-05-12T03:14:15.5+08:00",
		"2023-05-12T03:14:15.123456789123-07:30", "1969-12-31T23:59:59.999Z", "0000-01-01T00:00:00Z",
		"9999-12-31T23:59:59.999999999+23:59", "2024-02-29T00:00:00Z", "2023-02-29T00:00:00Z",
		"2023-04-31T00:00:00Z", "2023-05-12T24:00:00Z", "2023-05-12T03:60:15Z", "2023-05-12T03:14:60Z",
		"2023-05-12T03:14:15+24:00", "2023-05-12T03:14:15+08:60", "2023-05-12t03:14:15z",
		"2023-05-12T03:14:15.Z", "2023-05-12T03:14:15,5Z", "2023-05-12T03:14:15+0800",
		"2023-05-12 03:14:15Z", "+023-05-12T03:14:15Z", "2023-5-12T03:14:15Z", "230512  3:14:20", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if ms, ok := rfc3339Ms([]byte(s)); ok {
			if tm, err := time.Parse(time.RFC3339Nano, s); err != nil || tm.UnixMilli() != ms {
				t.Fatalf("rfc3339Ms(%q) = %d; time.Parse = %v, %v", s, ms, tm.UnixMilli(), err)
			}
		}
		got, ok := stampMs([]byte(s))
		want, err := parseSlowLogTime(s)
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("stampMs(%q) = %d, %v; parseSlowLogTime = %d, %v", s, got, ok, want, err)
		}
	})
}

// TestSlowLogStampTakesMySQLOutput: the stamps MySQL writes, in UTC or
// with an offset, are read from the bytes, not handed to time.Parse.
func TestSlowLogStampTakesMySQLOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000; i++ {
		zone := time.FixedZone("", (rng.Intn(48)-24)*1800)
		tm := time.UnixMicro(rng.Int63n(4e15)).In(zone)
		s := tm.Format("2006-01-02T15:04:05.000000Z07:00")
		if ms, ok := rfc3339Ms([]byte(s)); !ok || ms != tm.UnixMilli() {
			t.Fatalf("rfc3339Ms(%q) = %d, %v; want %d", s, ms, ok, tm.UnixMilli())
		}
	}
}

// FuzzParseDecimal holds the in-place decimal conversion to
// strconv.ParseFloat bit for bit: whatever parseDecimal accepts converts to
// the same float64, and parseFloat agrees with strconv on every input,
// accepted or refused.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{
		"0", "7", "0.251000", "0.000120", "1685613600.123", "123456789012345", "1234567890123456",
		"0.1234567890123456789012", "0.00000000000000000000001", "000000000000000000000.5", "99999999999999.9",
		"4.35", "0.3", "2.675", "1e3", "-1", "+1", "1.", ".5", "1..2", "", ".", "Inf", "nan", "0x10", "1_0", "１",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseFloat(s, 64)
		if got, ok := parseDecimal([]byte(s)); ok && (err != nil || math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("parseDecimal(%q) = %v; strconv.ParseFloat = %v, %v", s, got, want, err)
		}
		got, ok := parseFloat([]byte(s))
		if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv.ParseFloat = %v, %v", s, got, ok, want, err)
		}
	})
}

// TestParseDecimalTakesLogLiterals: the times a slow log and a trace carry
// are converted in place, not handed to strconv, and come out the same.
func TestParseDecimalTakesLogLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		s := strconv.FormatFloat(rng.Float64()*math.Pow10(rng.Intn(8)), 'f', rng.Intn(7), 64) // at most 8 + 6 digits
		got, ok := parseDecimal([]byte(s))
		if want, _ := strconv.ParseFloat(s, 64); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseDecimal(%q) = %v, %v; strconv.ParseFloat = %v", s, got, ok, want)
		}
	}
}
