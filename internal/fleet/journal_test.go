package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
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
		if err := j.Append("a", mkReport(w, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append("b", mkReport(w, 2000)); err != nil {
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
		if len(rec2[id]) != 3 {
			t.Fatalf("instance %s recovered %d windows, want 3", id, len(rec2[id]))
		}
		for w, rep := range rec2[id] {
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
			if err := j.Append("a", mkReport(w, 1000)); err != nil {
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
	j.Append("a", mkReport(0, 1000))
	j.Append("a", mkReport(1, 1000))
	j.Close()
	// Torn tail: half a JSON line, no newline.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"instance":"a","report":{"window":2,"fr`)
	f.Close()

	j2, recovered, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered["a"]) != 2 {
		t.Fatalf("recovered %d windows, want 2", len(recovered["a"]))
	}
	if err := j2.Append("a", mkReport(2, 1000)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rec3, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3["a"]) != 3 {
		t.Fatalf("after truncate+append recovered %d windows, want 3", len(rec3["a"]))
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
	j.Append("a", mkReport(0, 1000))
	j.Append("a", mkReport(2, 1000)) // skips window 1: durable but invalid
	j.Append("b", mkReport(0, 2000)) // after the bad entry: also dropped
	j.Close()

	_, recovered, err := openJournal(path, testWindowMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered["a"]) != 1 || len(recovered["b"]) != 0 {
		t.Fatalf("recovered a=%d b=%d, want a=1 b=0", len(recovered["a"]), len(recovered["b"]))
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
	j.Append("a", mkReport(0, 1000))
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
