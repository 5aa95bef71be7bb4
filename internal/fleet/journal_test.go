package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pinsql/internal/collect"
	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

func testWindowMs() map[string]int64 {
	return map[string]int64{"a": 1000, "b": 2000}
}

func mkReport(w int, windowMs int64) *WindowReport {
	return &WindowReport{Window: w, FromMs: int64(w) * windowMs, ToMs: int64(w+1) * windowMs, Records: int64(10 + w)}
}

// TestJournalRoundTrip appends interleaved entries for two instances with
// different window lengths and recovers them split by instance, in window
// order.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recovered, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d instances", len(recovered))
	}
	for w := 0; w < 3; w++ {
		if err := j.Append("a", mkReport(w, 1000), nil); err != nil {
			t.Fatal(err)
		}
		if err := j.Append("b", mkReport(w, 2000), nil); err != nil {
			t.Fatal(err)
		}
	}
	batches, windows := j.Stats()
	if windows != 6 {
		t.Fatalf("windows = %d, want 6", windows)
	}
	if batches < 1 || batches > 6 {
		t.Fatalf("batches = %d, want 1..6", batches)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if len(rec2[id].reports) != 3 {
			t.Fatalf("instance %s recovered %d windows, want 3", id, len(rec2[id].reports))
		}
		for w, rep := range rec2[id].reports {
			if rep.Window != w || rep.Records != int64(10+w) {
				t.Fatalf("instance %s window %d recovered as %+v", id, w, rep)
			}
		}
	}
}

// TestJournalGroupCommit pins the batching contract: appends that queue up
// while a sync is in flight ride one batch and share one fsync.
func TestJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Park a fake leader so concurrent appenders pile into pending.
	j.mu.Lock()
	j.syncing = true
	j.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := j.Append("a", mkReport(w, 1000), nil); err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Wait until all four entries are pending, then release the fake
	// leader: the first waiter to wake writes the whole batch.
	// The loop ends as soon as they are; the ceiling only bounds a hang, and
	// is wide enough for a machine whose CPUs are all taken.
	deadline := time.Now().Add(60 * time.Second)
	for {
		j.mu.Lock()
		n := j.pendN
		j.mu.Unlock()
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d entries pending", n)
		}
		time.Sleep(time.Millisecond)
	}
	j.mu.Lock()
	j.syncing = false
	j.cond.Broadcast()
	j.mu.Unlock()
	wg.Wait()

	batches, windows := j.Stats()
	if windows != 4 {
		t.Fatalf("windows = %d, want 4", windows)
	}
	if batches != 1 {
		t.Fatalf("batches = %d, want 1 (group commit must coalesce queued appends)", batches)
	}
	// Concurrent goroutines appended in arbitrary order, so this test does
	// not reopen: out-of-order windows for one instance are exactly what
	// the contiguity validator truncates.
}

// TestJournalTornTail writes a valid prefix plus a torn last line and
// checks recovery truncates to the prefix and appends resume cleanly.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	j.Append("a", mkReport(0, 1000), nil)
	j.Append("a", mkReport(1, 1000), nil)
	j.Close()
	// Torn tail: half a JSON line, no newline.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"instance":"a","report":{"window":2,"fr`)
	f.Close()

	j2, recovered, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered["a"].reports) != 2 {
		t.Fatalf("recovered %d windows, want 2", len(recovered["a"].reports))
	}
	if err := j2.Append("a", mkReport(2, 1000), nil); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rec3, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3["a"].reports) != 3 {
		t.Fatalf("after truncate+append recovered %d windows, want 3", len(rec3["a"].reports))
	}
}

// TestJournalOutOfSequence checks the contiguity validator: an entry that
// skips a window stops the scan and truncates, keeping only the prefix.
func TestJournalOutOfSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	j.Append("a", mkReport(0, 1000), nil)
	j.Append("a", mkReport(2, 1000), nil) // skips window 1: durable but invalid
	j.Append("b", mkReport(0, 2000), nil) // after the bad entry: also dropped
	j.Close()

	_, recovered, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered["a"].reports) != 1 || len(recovered["b"].reports) != 0 {
		t.Fatalf("recovered a=%d b=%d, want a=1 b=0", len(recovered["a"].reports), len(recovered["b"].reports))
	}
	data, _ := os.ReadFile(path)
	if strings.Count(string(data), "\n") != 1 {
		t.Fatalf("file not truncated to the good prefix: %q", data)
	}
}

// TestJournalUnknownInstance: a journal naming an instance the fleet does
// not know is a configuration error, never a truncation.
func TestJournalUnknownInstance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	j.Append("a", mkReport(0, 1000), nil)
	j.Close()
	if _, _, err := openJournal(path, map[string]int64{"b": 2000}); err == nil {
		t.Fatal("unknown instance in journal did not error")
	}
	// The file must be untouched by the failed open.
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), `"instance":"a"`) {
		t.Fatalf("failed open mangled the journal: %q", data)
	}
}

// tpl is a journaled template row with dense index idx.
func tpl(idx int32) collect.TemplateMeta {
	return collect.TemplateMeta{Index: idx, ID: sqltemplate.ID(fmt.Sprintf("T%02d", idx)),
		Text: fmt.Sprintf("SELECT c%d FROM t WHERE k = ? AND s = '<&>'", idx), Table: "t", Kind: dbsim.KindUpdate}
}

// TestJournalTemplates: each instance's journaled templates come back in
// dense index order, split from the other instances'. Templates that do not
// continue their instance's sequence — a gap, a repeat, or the index another
// instance's sequence reached — fail the open like an unknown instance and
// leave the file as it was; they are no truncation point.
func TestJournalTemplates(t *testing.T) {
	type entry struct {
		id   string
		w    int
		tpls []collect.TemplateMeta
	}
	windowMs := testWindowMs()
	write := func(t *testing.T, entries []entry) string {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		j, _, err := openJournal(path, windowMs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := j.Append(e.id, mkReport(e.w, windowMs[e.id]), e.tpls); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return path
	}

	path := write(t, []entry{
		{"a", 0, []collect.TemplateMeta{tpl(0), tpl(1)}},
		{"b", 0, []collect.TemplateMeta{tpl(0)}},
		{"a", 1, nil},
		{"a", 2, []collect.TemplateMeta{tpl(2)}},
		{"b", 1, []collect.TemplateMeta{tpl(1), tpl(2), tpl(3)}},
	})
	_, recovered, err := openJournal(path, windowMs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recovered["a"].templates, []collect.TemplateMeta{tpl(0), tpl(1), tpl(2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a: recovered templates %+v, want %+v", got, want)
	}
	if got, want := recovered["b"].templates, []collect.TemplateMeta{tpl(0), tpl(1), tpl(2), tpl(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("b: recovered templates %+v, want %+v", got, want)
	}
	if len(recovered["a"].reports) != 3 || len(recovered["b"].reports) != 2 {
		t.Fatalf("recovered a=%d b=%d windows, want 3 and 2", len(recovered["a"].reports), len(recovered["b"].reports))
	}

	for name, entries := range map[string][]entry{
		"gap":                {{"a", 0, []collect.TemplateMeta{tpl(0)}}, {"a", 1, []collect.TemplateMeta{tpl(2)}}},
		"repeat":             {{"a", 0, []collect.TemplateMeta{tpl(0), tpl(1)}}, {"a", 1, []collect.TemplateMeta{tpl(1)}}},
		"not from zero":      {{"a", 0, []collect.TemplateMeta{tpl(1)}}},
		"another instance's": {{"a", 0, []collect.TemplateMeta{tpl(0)}}, {"b", 0, []collect.TemplateMeta{tpl(1)}}},
	} {
		path := write(t, entries)
		before, _ := os.ReadFile(path)
		if _, _, err := openJournal(path, windowMs); err == nil || !strings.Contains(err.Error(), "template index") {
			t.Fatalf("%s: open: %v, want the out-of-sequence template refused", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
			t.Fatalf("%s: the refused journal changed", name)
		}
	}
}

// TestJournalUnreadableLine: a line longer than the scanner takes ends the
// scan with an error, not at a torn tail. The open fails and the file —
// the committed window after that line included — is left as it was.
func TestJournalUnreadableLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	j.Append("a", mkReport(0, 1000), nil)
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	long := append(bytes.Repeat([]byte{'x'}, journalMaxLine+1), '\n')
	f.Write(long)
	f.WriteString(`{"instance":"a","report":{"window":1,"from_ms":1000,"to_ms":2000,"records":11}}` + "\n")
	f.Close()
	before, _ := os.ReadFile(path)

	if _, _, err := openJournal(path, testWindowMs()); err == nil {
		t.Fatal("a journal with an unreadable line opened")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatalf("the failed open changed the journal: %d bytes before, %d after", len(before), len(after))
	}
}
