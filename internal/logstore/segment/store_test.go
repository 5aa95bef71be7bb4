package segment

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pinsql/internal/logstore"
)

// scanAll collects ScanFunc's records of [fromMs, toMs), empty but not nil
// when there are none.
func scanAll(b logstore.Backend, topic string, fromMs, toMs int64) []logstore.Record {
	out := []logstore.Record{}
	b.ScanFunc(topic, fromMs, toMs, func(r logstore.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// liveTopics returns the sorted names of s's topics with a live record;
// no append may run meanwhile.
func liveTopics(s *Store) []string {
	var names []string
	for name := range s.topics {
		if s.Len(name) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Bounds returns the minimum and maximum live ArrivalMs of a topic: its
// first and last live records.
func (s *Store) Bounds(topicName string) (minMs, maxMs int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0, 0, false
	}
	s.scanLocked(t, math.MinInt64, math.MaxInt64, func(rec logstore.Record) bool {
		minMs, ok = rec.ArrivalMs, true
		return false
	})
	if !ok {
		return 0, 0, false
	}
	maxMs, _ = t.newest()
	return minMs, maxMs, true
}

// smallOpts forces frequent sealing so tests cross segment boundaries.
func smallOpts() Options {
	return Options{segmentRecords: 16, indexEvery: 4}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rec(tpl int32, ms int64) logstore.Record {
	return logstore.Record{TemplateIdx: tpl, ArrivalMs: ms, ResponseMs: float64(ms) / 3, ExaminedRows: ms % 7}
}

func TestAppendScanAcrossSegments(t *testing.T) {
	s := mustOpen(t, t.TempDir(), smallOpts())
	defer s.Close()
	const n = 100 // crosses several 16-record segments
	for i := 0; i < n; i++ {
		if err := s.Append("db1", rec(int32(i), int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	got := scanAll(s, "db1", 200, 5000)
	if len(got) != 48 {
		t.Fatalf("scan returned %d records, want 48", len(got))
	}
	for i, r := range got {
		want := rec(int32(i+2), int64((i+2)*100))
		if r != want {
			t.Fatalf("rec[%d] = %+v, want %+v", i, r, want)
		}
	}
	if s.Len("db1") != n {
		t.Errorf("Len = %d, want %d", s.Len("db1"), n)
	}
	if min, max, ok := s.Bounds("db1"); !ok || min != 0 || max != int64((n-1)*100) {
		t.Errorf("Bounds = %d, %d, %v", min, max, ok)
	}
}

func TestScanFuncEarlyStop(t *testing.T) {
	s := mustOpen(t, t.TempDir(), smallOpts())
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Append("t", rec(0, int64(i)))
	}
	seen := 0
	s.ScanFunc("t", 0, 100, func(logstore.Record) bool {
		seen++
		return seen < 7
	})
	if seen != 7 {
		t.Errorf("early stop saw %d records, want 7", seen)
	}
}

// TestSlackRejection: a record behind the topic's newest live record is
// refused — whether the newest sits in the wal or, after a seal and a
// reopen, in a segment — and a tie with it is accepted.
func TestSlackRejection(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Append("t", rec(0, 1000))
	s.Append("t", rec(0, 9000))
	check := func(stage string) {
		t.Helper()
		if err := s.Append("t", rec(1, 8999)); err != logstore.ErrUnsortedAppend {
			t.Errorf("%s: append 1 ms behind the newest: error %v, want ErrUnsortedAppend", stage, err)
		}
	}
	check("wal")
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	check("sealed")
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	check("reopened")
	if err := s.Append("t", rec(2, 9000)); err != nil {
		t.Errorf("tie with the newest: %v", err)
	}
	if got := s.Len("t"); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
}

func TestReopenReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, smallOpts())
	for i := 0; i < 50; i++ {
		s.Append("a", rec(int32(i), int64(i*10)))
		s.Append("b", rec(int32(i), int64(i*20)))
	}
	want := scanAll(s, "a", 0, 1<<62)
	wantB := scanAll(s, "b", 0, 1<<62)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, smallOpts())
	defer r.Close()
	if got := scanAll(r, "a", 0, 1<<62); !reflect.DeepEqual(got, want) {
		t.Errorf("topic a diverged after reopen:\n got %v\nwant %v", got, want)
	}
	if got := scanAll(r, "b", 0, 1<<62); !reflect.DeepEqual(got, wantB) {
		t.Errorf("topic b diverged after reopen")
	}
	if topics := liveTopics(r); !reflect.DeepEqual(topics, []string{"a", "b"}) {
		t.Errorf("topics = %v", topics)
	}
	// And the store still accepts appends after recovery.
	r.Append("a", rec(99, 10_000))
	if got := r.Len("a"); got != 51 {
		t.Errorf("post-recovery Len = %d, want 51", got)
	}
}

func TestExpireDeletesWholeSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{segmentRecords: 10, indexEvery: 4, ttlMs: 1000})
	for i := 0; i < 40; i++ {
		s.Append("t", rec(int32(i), int64(i*100)))
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "t", "t", "*.seg"))
	if len(segsBefore) != 4 {
		t.Fatalf("segments on disk = %d, want 4", len(segsBefore))
	}

	// cutoff = 2500: segments [0,900] and [1000,1900] die whole, segment
	// [2000,2900] is half masked.
	removed := s.Expire(3500)
	if removed != 25 {
		t.Errorf("removed = %d, want 25", removed)
	}
	if got := s.Len("t"); got != 15 {
		t.Errorf("Len = %d, want 15", got)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "t", "t", "*.seg"))
	if len(segsAfter) != 2 {
		t.Errorf("segments on disk after expire = %d, want 2", len(segsAfter))
	}
	if min, _, ok := s.Bounds("t"); !ok || min != 2500 {
		t.Errorf("post-expire min = %d, %v, want 2500", min, ok)
	}

	// The watermark survives a restart: reopening must not resurrect
	// expired records.
	s.Close()
	r := mustOpen(t, dir, Options{segmentRecords: 10, indexEvery: 4, ttlMs: 1000})
	defer r.Close()
	if got := r.Len("t"); got != 15 {
		t.Errorf("Len after reopen = %d, want 15", got)
	}
	if got := scanAll(r, "t", 0, 1<<62); len(got) != 15 || got[0].ArrivalMs != 2500 {
		t.Errorf("scan after reopen: len %d, first %v", len(got), got[0])
	}
	// Expiring everything empties the topic list.
	r.Expire(1 << 40)
	if topics := liveTopics(r); len(topics) != 0 {
		t.Errorf("topics after full expiry = %v", topics)
	}
}

func TestTopicNameEscaping(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	odd := "prod/db-7:3306 €"
	s.Append(odd, rec(1, 42))
	s.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := liveTopics(r); len(got) != 1 || got[0] != odd {
		t.Errorf("topics after reopen = %q", got)
	}
	if got := scanAll(r, odd, 0, 100); len(got) != 1 || got[0].ArrivalMs != 42 {
		t.Errorf("scan = %v", got)
	}
}

func TestEmptyAndMissingTopic(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if got := scanAll(s, "nope", 0, 100); len(got) != 0 {
		t.Errorf("missing topic scan = %v", got)
	}
	if _, _, ok := s.Bounds("nope"); ok {
		t.Error("Bounds ok for missing topic")
	}
	if got := s.Len("nope"); got != 0 {
		t.Errorf("Len = %d", got)
	}
	// Scanning must not create topic directories on disk.
	if _, err := os.Stat(filepath.Join(s.dir, "t", "nope")); !os.IsNotExist(err) {
		t.Error("read path created a topic directory")
	}
}

func TestConcurrentAppendScan(t *testing.T) {
	s := mustOpen(t, t.TempDir(), smallOpts())
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := string(rune('a' + w)) // one writer a topic: its appends stay in order
			for i := 0; i < 300; i++ {
				s.Append(topic, rec(int32(w), int64(i)))
				if i%50 == 0 {
					scanAll(s, topic, 0, int64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, topic := range liveTopics(s) {
		total += s.Len(topic)
	}
	if total != 8*300 {
		t.Errorf("total records = %d, want 2400", total)
	}
}

// TestSyncEveryPolicy exercises the periodic-fsync path: appends sync
// without error, and a crash-style reopen (no Close) still sees every
// record.
func TestSyncEveryPolicy(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: 3, segmentRecords: 8, indexEvery: 2})
	for i := 0; i < 20; i++ {
		if err := s.Append("t", rec(int32(i), int64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SyncEvery: 3, segmentRecords: 8, indexEvery: 2})
	defer r.Close()
	if got := r.Len("t"); got != 20 {
		t.Fatalf("records after crash-reopen = %d, want 20", got)
	}
}

func TestSealForcesSegmentScanPath(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Append("t", rec(int32(i), int64(100+i*100)))
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(s, "t", 0, 1000)
	if len(got) != 5 || got[0].ArrivalMs != 100 {
		t.Fatalf("sealed scan = %v", got)
	}
	// Appends after a forced seal open a fresh wal.
	s.Append("t", rec(9, 600))
	if got := s.Len("t"); got != 6 {
		t.Errorf("Len = %d", got)
	}
}
