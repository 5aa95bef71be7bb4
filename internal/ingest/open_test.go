package ingest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pinsql/internal/dbsim"
)

func TestOpenSlowLogGzipAndPlainAgree(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "slowlog_fixture.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "fixture.log")
	if err := os.WriteFile(plain, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(raw)
	zw.Close()
	zipped := filepath.Join(dir, "fixture.log.gz")
	if err := os.WriteFile(zipped, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	sum := func(path string) (batches int, records int64, st Stats) {
		t.Helper()
		src, err := Open(path, FormatAuto, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		for {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			batches++
			records += int64(len(b.Records))
			if len(b.Metrics) == 0 {
				t.Fatalf("second %d came out of the slow-log stack without a synthesized metric row", b.Second)
			}
		}
		if c, ok := src.(Counting); ok {
			st = c.Stats()
		}
		return
	}

	pb, pr, pst := sum(plain)
	zb, zr, zst := sum(zipped)
	if pb != zb || pr != zr || pst != zst {
		t.Fatalf("plain (%d batches, %d recs, %+v) != gzip (%d batches, %d recs, %+v)", pb, pr, pst, zb, zr, zst)
	}
	if pr == 0 || pst.Records == 0 {
		t.Fatal("no records came through the full slow-log stack")
	}
	if pst.ParseErrors == 0 {
		t.Fatal("fixture parse errors not propagated through the stack")
	}
}

func TestOpenWaitEvents(t *testing.T) {
	src, err := Open(filepath.Join("testdata", "waitevents_fixture.jsonl"), FormatWaitEvents, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var prev int64 = -1
	var withMetrics int
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Second != prev+1 {
			t.Fatalf("not dense: second %d after %d", b.Second, prev)
		}
		prev = b.Second
		if len(b.Metrics) > 0 {
			withMetrics++
		}
	}
	if prev < 30 {
		t.Fatalf("replay ended at second %d, want ~39 fixture seconds", prev)
	}
	if withMetrics < 30 {
		t.Fatalf("only %d seconds carried sampler metrics", withMetrics)
	}
}

func TestOpenUnknownFormat(t *testing.T) {
	if _, err := Open(filepath.Join("testdata", "slowlog_fixture.log"), "nonsense", OpenOptions{}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := Open(filepath.Join("testdata", "slowlog_fixture.log"), FormatTrace, OpenOptions{}); err == nil {
		t.Fatal("slow log accepted as a trace header")
	}
}

func TestGuessFormat(t *testing.T) {
	cases := map[string]string{
		"a/b/mysql-slow.log": FormatSlowLog,
		"x.slow.gz":          FormatSlowLog,
		"samples.jsonl":      FormatWaitEvents,
		"samples.ndjson.gz":  FormatWaitEvents,
		"run.trace":          FormatTrace,
		"export.pinsql.gz":   FormatTrace,
		"mystery.bin":        FormatAuto,
		"noextension":        FormatAuto,
	}
	for path, want := range cases {
		if got := guessFormat(path); got != want {
			t.Errorf("guessFormat(%q) = %q, want %q", path, got, want)
		}
	}
}

// budgetSQL is the statement of second s's i-th record in the allocation
// budgets: 48 bytes, a size class of its own, so that its string costs
// exactly that.
func budgetSQL(s, i int) string {
	return fmt.Sprintf("SELECT qty FROM inventory WHERE sku = %04d%06d", i, s)
}

// budgetRecords is second s's record count in the allocation budgets: 20
// to 40, largest in second 0.
func budgetRecords(s int) int { return 40 - s*7%21 }

// budgetFile writes an allocation budget's input file. It is not
// compressed: some gzip blocks make the decompressor new Huffman tables,
// which are no batch's cost.
func budgetFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// steadyNext reads warm batches from src, then n more, and reports what
// those n allocated and how many records they carried.
func steadyNext(t *testing.T, src Source, warm, n int) (objects, bytes uint64, records int) {
	t.Helper()
	for i := 0; i < warm; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		records += len(b.Records)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, records
}

// checkSteadyNext fails when a source's steady state costs more than each
// record's SQL string: one object of 48 bytes, and nothing per batch.
func checkSteadyNext(t *testing.T, objects, bytes uint64, records int) {
	t.Helper()
	if objects > uint64(records) || bytes > 48*uint64(records) {
		t.Errorf("%d records cost %d objects and %d bytes; want at most one 48-byte SQL string each", records, objects, bytes)
	}
}

// TestTraceSourceAllocBudget budgets a trace file's batches in steady
// state: every second is decoded into the one record buffer and the one
// metric-row buffer, so Next costs the records' SQL strings and nothing per
// batch.
func TestTraceSourceAllocBudget(t *testing.T) {
	const seconds = 200
	var recs []dbsim.LogRecord
	var rows []dbsim.SecondMetrics
	for s := 0; s < seconds; s++ {
		for i := 0; i < budgetRecords(s); i++ {
			recs = append(recs, dbsim.LogRecord{TemplateID: "T1", SQL: budgetSQL(s, i), Table: "inventory",
				ArrivalMs: int64(s)*1000 + int64(i), ResponseMs: 12.5, ExaminedRows: 3})
		}
		rows = append(rows, dbsim.SecondMetrics{Second: int64(s), ActiveSession: 3, CPUUsage: 20, QPS: budgetRecords(s)})
	}
	var zbuf bytes.Buffer
	if err := WriteTraceData(&zbuf, 0, seconds*1000, recs, rows); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&zbuf)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Open(budgetFile(t, "budget.trace", plain), FormatTrace, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	objects, bytes, records := steadyNext(t, src, 20, seconds-40)
	checkSteadyNext(t, objects, bytes, records)
}

// TestSlowLogChainAllocBudget budgets the slow-log stack Open builds —
// SlowLogSource, Replay, SessionSynth — in steady state, past the
// synthesizer's 300-second lookahead: the parser's two record buffers, the
// slack pen's and the lookahead's recycled copies and the one synthesized
// row leave each record's SQL string as all that Next costs.
func TestSlowLogChainAllocBudget(t *testing.T) {
	const seconds, warm, n = 900, 350, 200 // the lookahead reads on to second 855
	var in strings.Builder
	for s := 0; s < seconds; s++ {
		for i := 0; i < budgetRecords(s); i++ {
			in.WriteString(slowEntryText(1_700_000_000+s, budgetSQL(s, i)))
		}
	}
	src, err := Open(budgetFile(t, "budget.slow.log", []byte(in.String())), FormatSlowLog, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	objects, bytes, records := steadyNext(t, src, warm, n)
	checkSteadyNext(t, objects, bytes, records)
	if st := src.(Counting).Stats(); st.ParseErrors != 0 {
		t.Fatalf("%d parse errors", st.ParseErrors)
	}
}
