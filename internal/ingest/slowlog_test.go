package ingest

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata goldens from current output")

// slowEntry is one parsed record as serialized into the golden file:
// the normalized template stands in for raw SQL so the golden pins the
// whole normalization path, not just the parser.
type slowEntry struct {
	Template    string  `json:"template"`
	Table       string  `json:"table"`
	Kind        int     `json:"kind"`
	ArrivalMs   int64   `json:"arrival_ms"`
	ResponseMs  float64 `json:"response_ms"`
	LockWaitMs  float64 `json:"lock_wait_ms,omitempty"`
	Examined    int64   `json:"rows_examined,omitempty"`
	EmissionSec int64   `json:"emission_sec"`
}

type slowGolden struct {
	Records     int64       `json:"records"`
	ParseErrors int64       `json:"parse_errors"`
	FromMs      int64       `json:"from_ms"`
	ToMs        int64       `json:"to_ms"`
	Entries     []slowEntry `json:"entries"`
}

func TestSlowLogGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "slowlog_fixture.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := SlowLog(f)

	var got slowGolden
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			if r.TemplateID != "" {
				t.Fatalf("record %q left with TemplateID %q, want empty (registry interns)", r.SQL, r.TemplateID)
			}
			if !utf8.ValidString(r.SQL) {
				t.Fatalf("invalid UTF-8 in SQL %q", r.SQL)
			}
			got.Entries = append(got.Entries, slowEntry{
				Template:    sqltemplate.Normalize(r.SQL),
				Table:       r.Table,
				Kind:        int(r.Kind),
				ArrivalMs:   r.ArrivalMs,
				ResponseMs:  r.ResponseMs,
				LockWaitMs:  r.LockWaitMs,
				Examined:    r.ExaminedRows,
				EmissionSec: b.Second,
			})
		}
	}
	st := src.Stats()
	got.Records, got.ParseErrors = st.Records, st.ParseErrors
	got.FromMs, got.ToMs = src.Bounds()

	// Structural checks independent of the golden: the fixture ends in a
	// truncated tail and contains an interleaved header and a bad
	// Query_time line, all of which must be counted, not fatal.
	if st.ParseErrors < 3 {
		t.Errorf("ParseErrors = %d, want >= 3 (torn tail, interleaved header, bad Query_time)", st.ParseErrors)
	}
	if int64(len(got.Entries)) != st.Records {
		t.Errorf("drained %d records, stats say %d", len(got.Entries), st.Records)
	}
	if st.Records < 40 {
		t.Errorf("Records = %d, want >= 40", st.Records)
	}

	compareGolden(t, filepath.Join("testdata", "slowlog_fixture.golden.json"), got)
}

// compareGolden marshals got and diffs it against (or rewrites) the
// golden file.
func compareGolden(t *testing.T, path string, got any) {
	t.Helper()
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateGoldens {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-goldens to create)", err)
	}
	if string(want) != string(raw) {
		t.Fatalf("output differs from %s (run with -update-goldens after intentional changes)\nfirst diff near: %s",
			path, firstDiff(string(want), string(raw)))
	}
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: want %s got %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d", len(la), len(lb))
}

// slowEntryText renders one well-formed entry starting at startSec.
func slowEntryText(startSec int, sql string) string {
	return fmt.Sprintf("# Time: 2023-06-01T10:00:00.500000Z\n# User@Host: shop[shop] @ app-01 [10.1.0.10]  Id:   100\n"+
		"# Query_time: 0.250000  Lock_time: 0.000100 Rows_sent: 0  Rows_examined: 102\nSET timestamp=%d.125;\n%s;\n", startSec, sql)
}

// The batch cut is the maximal run of one emission second, also when a
// second comes back after another one and at EOF: A A B A is three batches
// and a fourth, never two.
func TestSlowLogBatchCutABA(t *testing.T) {
	var in strings.Builder
	for _, sec := range []int{100, 100, 101, 100, 100, 102} {
		in.WriteString(slowEntryText(sec, "SELECT 1"))
	}
	src := SlowLog(strings.NewReader(in.String()))
	type cut struct {
		sec  int64
		n    int
		last bool
	}
	var got []cut
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, cut{b.Second, len(b.Records), b.Last})
	}
	want := []cut{{100, 2, false}, {101, 1, false}, {100, 2, false}, {102, 1, true}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batches (second, records, last) = %v, want %v", got, want)
	}
}

// Keyword matching folds ASCII case only. strings.ToLower and ToUpper, which
// the parser used to classify with, fold İ to i, ı to I and ſ to S, so these
// three lines used to be a malformed SET timestamp (a counted parse error
// and no record), an UPDATE of t and a SELECT FROM ſ.
func TestSlowLogKeywordsFoldASCIIOnly(t *testing.T) {
	in := slowEntryText(100, "SET tİmestamp=5") +
		slowEntryText(100, "UPDATE t SET a = 1 WHERE b ın (SELECT 1)") +
		slowEntryText(100, "ſelect 1 FROM x") +
		slowEntryText(100, "update T set a = 1") +
		"USE shop;\n" + slowEntryText(100, "sHoW tables fRoM `shop`.`t`")
	src := SlowLog(strings.NewReader(in))
	b, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		sql, table string
		kind       dbsim.QueryKind
	}
	var got []row
	for _, r := range b.Records {
		got = append(got, row{r.SQL, r.Table, r.Kind})
	}
	want := []row{
		{"SET tİmestamp=5", "", dbsim.KindSelect},
		{"UPDATE t SET a = 1 WHERE b ın (SELECT 1)", "t", dbsim.KindUpdate},
		{"ſelect 1 FROM x", "x", dbsim.KindSelect},
		{"update T set a = 1", "T", dbsim.KindUpdate},
		{"sHoW tables fRoM `shop`.`t`", "t", dbsim.KindSelect},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("records = %v\nwant      %v", got, want)
	}
	if st := src.Stats(); st.ParseErrors != 0 {
		t.Fatalf("ParseErrors = %d, want 0", st.ParseErrors)
	}
	ref := parseRefSlowLog(in)
	if ref.stats.ParseErrors != 2 || len(ref.recs) != 4 {
		t.Fatalf("the Unicode-folding reference parser: %+v, want the İ line and the entry it leaves open as two parse errors", ref.stats)
	}
}

// strconv.ParseFloat reads "Inf" and "infinity" without error, and 1e300
// seconds is finite but no int64 of milliseconds: a Query_time of either
// kind is a malformed header (a counted parse error, no record), as NaN and
// negatives are, and such a Lock_time is ignored, as they are. One +Inf
// response would otherwise make every sum and correlation of its window
// non-finite and reach float-to-int conversions whose result Go leaves to
// the platform.
func TestSlowLogRejectsNonFiniteTimes(t *testing.T) {
	entry := func(header string) string {
		return "# Time: 2023-06-01T10:00:00Z\n# " + header + "\nSET timestamp=100;\nSELECT 1;\n"
	}
	for _, qt := range []string{"Inf", "+Inf", "-Inf", "infinity", "NaN", "-1", "1e300", "1e16"} {
		in := entry("Query_time: "+qt+"  Lock_time: 0") + slowEntryText(100, "SELECT 2")
		src := SlowLog(strings.NewReader(in))
		b, err := src.Next()
		if err != nil {
			t.Fatalf("Query_time %s: %v", qt, err)
		}
		if len(b.Records) != 1 || b.Records[0].SQL != "SELECT 2" {
			t.Errorf("Query_time %s: records %+v, want only the well-formed entry", qt, b.Records)
		}
		if st := src.Stats(); st.ParseErrors == 0 {
			t.Errorf("Query_time %s: no parse error counted", qt)
		}
	}
	for _, lt := range []string{"Inf", "infinity", "NaN", "-1", "1e300"} {
		src := SlowLog(strings.NewReader(entry("Query_time: 0.25  Lock_time: " + lt)))
		b, err := src.Next()
		if err != nil {
			t.Fatalf("Lock_time %s: %v", lt, err)
		}
		if len(b.Records) != 1 || b.Records[0].ResponseMs != 250 || b.Records[0].LockWaitMs != 0 {
			t.Errorf("Lock_time %s: records %+v, want one of 250 ms and no lock wait", lt, b.Records)
		}
	}
	// The largest time that is still one: just under 2^63 ms.
	src := SlowLog(strings.NewReader(entry("Query_time: 9.2e15")))
	if b, err := src.Next(); err != nil || len(b.Records) != 1 || b.Records[0].ResponseMs != 9.2e18 {
		t.Errorf("Query_time 9.2e15: %+v, %v; want one record of 9.2e18 ms", b, err)
	}
}

// A `SET timestamp=` whose milliseconds no int64 holds is refused like a
// header time of that kind: a counted parse error, after which the entry
// falls back to its "# Time:" stamp. Converted as it stood, the value was
// whatever the platform makes of an out-of-range float — MinInt64 on amd64,
// where the entry fell back without a parse error, the saturated maximum on
// arm64, where it did not fall back at all.
func TestSlowLogRejectsOutOfRangeSetTimestamp(t *testing.T) {
	const hdrMs = 1685613600_000 // 2023-06-01T10:00:00Z
	for _, ts := range []string{"1e300", "Inf", "9.3e15", "NaN"} {
		in := "# Time: 2023-06-01T10:00:00Z\n# Query_time: 0.25  Lock_time: 0\nSET timestamp=" + ts + ";\nSELECT 1;\n"
		src := SlowLog(strings.NewReader(in))
		b, err := src.Next()
		if err != nil {
			t.Fatalf("SET timestamp=%s: %v", ts, err)
		}
		if len(b.Records) != 1 || b.Records[0].ArrivalMs != hdrMs-250 {
			t.Errorf("SET timestamp=%s: records %+v, want one arriving at the header time less its 250 ms", ts, b.Records)
		}
		if st := src.Stats(); st.ParseErrors != 1 {
			t.Errorf("SET timestamp=%s: %d parse errors, want 1", ts, st.ParseErrors)
		}
	}
}

// A budget of work, not of time: an entry costs its SQL string, nothing per
// line — its "# Time:" stamp is read from the bytes — and nothing per
// batch once the two record buffers have grown to a second's records.
func TestSlowLogAllocsPerEntry(t *testing.T) {
	const entries = 512
	var in strings.Builder
	in.WriteString("/usr/sbin/mysqld, Version: 8.0.32 (MySQL Community Server - GPL). started with:\n")
	for i := 0; i < entries; i++ {
		in.WriteString(slowEntryText(100+i/64, "SELECT qty, updated_at\n  FROM inventory WHERE sku = 797742"))
	}
	text := in.String()
	got := testing.AllocsPerRun(5, func() {
		src := SlowLog(strings.NewReader(text))
		n := 0
		for {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			n += len(b.Records)
		}
		if n != entries {
			t.Fatalf("parsed %d entries, want %d", n, entries)
		}
	})
	if perEntry := got / entries; perEntry > 1.05 {
		t.Errorf("%.3f allocations per entry, want at most 1.05", perEntry)
	}
}

// TestSlowLogPendingAllocBudget budgets a trace second's record slice in
// bytes: the seconds take turns in two buffers, each reused the Next after
// its batch, so once both hold a second's records the records cost nothing.
// A buffer made for every second cost 218 B per entry.
func TestSlowLogPendingAllocBudget(t *testing.T) {
	const seconds, perSecond = 40, 256
	const measured = 83.1 // bytes per entry: its SQL string, the scanner's buffer and the two record buffers
	var in strings.Builder
	for i := 0; i < seconds*perSecond; i++ {
		in.WriteString(slowEntryText(100+i/perSecond, "SELECT qty, updated_at\n  FROM inventory WHERE sku = 797742"))
	}
	text := in.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src := SlowLog(strings.NewReader(text))
	n := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		n += len(b.Records)
	}
	runtime.ReadMemStats(&after)
	if n != seconds*perSecond {
		t.Fatalf("parsed %d entries, want %d", n, seconds*perSecond)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	if budget := 1.15 * measured; got > budget {
		t.Errorf("%.1f B allocated per entry, budget %.1f", got, budget)
	}
}
