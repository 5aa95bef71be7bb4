package segment

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pinsql/internal/logstore"
)

// walPathOf locates the single active wal of a topic.
func walPathOf(t *testing.T, dir, topic string) string {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "t", topic, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files = %v (err %v), want exactly 1", wals, err)
	}
	return wals[0]
}

// writeRecovery populates a store and returns the per-record prefixes of
// the expected recovery: want[i] is the scan after the first i records.
func recoveryFixture(t *testing.T, dir string) (walPath string, recs []logstore.Record) {
	t.Helper()
	s := mustOpen(t, dir, Options{segmentRecords: 1 << 20})
	for i := 0; i < 25; i++ {
		// Arrivals in order with repeats, varied payloads.
		ms := int64(i / 3 * 37)
		r := logstore.Record{TemplateIdx: int32(i % 5), ArrivalMs: ms, ResponseMs: float64(i) * 1.5, ExaminedRows: int64(i * i)}
		if err := s.Append("t", r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return walPathOf(t, dir, "t"), recs
}

// expectPrefix computes the Scan result the in-memory store would produce
// for the first n ingested records.
func expectPrefix(recs []logstore.Record, n int) []logstore.Record {
	mem := logstore.New(0)
	for _, r := range recs[:n] {
		mem.Append("t", r)
	}
	return mem.Scan("t", 0, 1<<62)
}

// TestTornTailTruncation simulates a torn write at every byte offset of
// the active wal: the file is truncated to k bytes, the store reopened,
// and every record whose frame lies wholly before k must survive.
func TestTornTailTruncation(t *testing.T) {
	masterDir := t.TempDir()
	walPath, recs := recoveryFixture(t, masterDir)
	walData, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Map each byte offset to the number of wholly-written frames.
	frames := frameEnds(t, walData)

	for k := 0; k <= len(walData); k++ {
		dir := t.TempDir()
		cloneTopicDir(t, masterDir, dir)
		torn := walPathOf(t, dir, "t")
		if err := os.WriteFile(torn, walData[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{segmentRecords: 1 << 20})
		if err != nil {
			t.Fatalf("offset %d: open: %v", k, err)
		}
		intact := 0
		for _, end := range frames {
			if end <= k {
				intact++
			}
		}
		want := expectPrefix(recs, intact)
		got := s.Scan("t", 0, 1<<62)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("offset %d: recovered %d records, want %d intact\n got %v\nwant %v",
				k, len(got), intact, got, want)
		}
		// The torn tail must actually be truncated so new appends start a
		// clean frame chain.
		if err := s.Append("t", logstore.Record{TemplateIdx: 9, ArrivalMs: 10_000}); err != nil {
			t.Fatalf("offset %d: post-recovery append: %v", k, err)
		}
		if got := s.Len("t"); got != intact+1 {
			t.Fatalf("offset %d: post-recovery append Len = %d, want %d", k, got, intact+1)
		}
		s.Close()
	}
}

// TestCorruptedByteRecovery flips one byte at every offset of the wal:
// recovery must keep every record before the corrupted frame, with the
// CRC rejecting the mutation.
func TestCorruptedByteRecovery(t *testing.T) {
	masterDir := t.TempDir()
	walPath, recs := recoveryFixture(t, masterDir)
	walData, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	frames := frameEnds(t, walData)

	for k := len(fileHeader); k < len(walData); k++ {
		dir := t.TempDir()
		cloneTopicDir(t, masterDir, dir)
		mut := append([]byte(nil), walData...)
		mut[k] ^= 0x5a
		torn := walPathOf(t, dir, "t")
		if err := os.WriteFile(torn, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{segmentRecords: 1 << 20})
		if err != nil {
			t.Fatalf("offset %d: open: %v", k, err)
		}
		// Every frame that ends at or before the corrupted byte is intact;
		// recovery stops at the first damaged frame (a flipped length
		// byte may detach all later frames — that is within contract).
		intactAtLeast := 0
		for _, end := range frames {
			if end <= k {
				intactAtLeast++
			}
		}
		got := s.Scan("t", 0, 1<<62)
		want := expectPrefix(recs, intactAtLeast)
		if len(got) < len(want) {
			t.Fatalf("offset %d: recovered %d records, want ≥ %d", k, len(got), len(want))
		}
		for i, r := range want {
			if got[i] != r {
				t.Fatalf("offset %d: surviving record %d = %+v, want %+v (CRC failed to localize damage)",
					k, i, got[i], r)
			}
		}
		s.Close()
	}
}

// TestCorruptSegmentPrefixRecovery: a sealed segment damaged mid-file
// reopens with its clean prefix — every record whose frame ends before the
// damaged byte — and the segment after it whole.
func TestCorruptSegmentPrefixRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, smallOpts())
	var recs []logstore.Record
	for i := 0; i < 32; i++ { // two sealed segments
		recs = append(recs, rec(int32(i), int64(i*100)))
	}
	if n, err := s.AppendBatch("t", recs); n != len(recs) || err != nil {
		t.Fatal(n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte two-thirds into the first segment's record area.
	target := filepath.Join(dir, "t", "t", segName(1))
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	bad, intact := len(data)*2/3, 0
	for _, end := range frameEnds(t, data) {
		if end <= bad {
			intact++
		}
	}
	if intact == 0 || intact >= 16 {
		t.Fatalf("fixture: %d of 16 frames before the damaged byte", intact)
	}
	data[bad] ^= 0xFF
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, smallOpts())
	defer r.Close()
	want := append(slices.Clone(recs[:intact]), recs[16:]...)
	if got := r.Scan("t", -1<<62, 1<<62); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store scans %d records, want the %d intact ones", len(got), len(want))
	}
	if got := r.Len("t"); got != len(want) {
		t.Fatalf("Len %d, want %d", got, len(want))
	}
}

// frameEnds returns the end offset of every frame in a wal image.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := len(fileHeader)
	for off < len(data) {
		_, next, err := nextFrame(data, off)
		if err != nil {
			t.Fatalf("master wal corrupt at %d: %v", off, err)
		}
		ends = append(ends, next)
		off = next
	}
	return ends
}

// cloneTopicDir copies a store directory tree (small test stores only).
func cloneTopicDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
