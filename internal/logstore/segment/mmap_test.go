package segment

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pinsql/internal/logstore"
)

// populateStore fills a store with a deterministic workload of in-order
// appends, ties and refused stragglers across several sealed segments,
// returning the topics written.
func populateStore(t *testing.T, s *Store, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"alpha", "beta"}
	for i := 0; i < 400; i++ {
		topic := topics[i%len(topics)]
		r := rec(int32(rng.Intn(40)), int64(i*25+rng.Intn(10)))
		if rng.Intn(5) == 0 {
			s.Append(topic, logstore.Record{
				TemplateIdx: r.TemplateIdx,
				ArrivalMs:   int64(rng.Intn(10_000)),
				ResponseMs:  r.ResponseMs,
			})
			continue
		}
		if err := s.Append(topic, r); err != nil && err != logstore.ErrUnsortedAppend {
			t.Fatal(err)
		}
	}
	return topics
}

// scanAll collects every record of a topic via ScanFunc.
func scanAll(s *Store, topic string) []logstore.Record {
	var out []logstore.Record
	s.ScanFunc(topic, -1<<60, 1<<60, func(r logstore.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// TestMmapScanMatchesFileScan is the mmap differential test: the same
// on-disk state scanned through the memory-mapped path and through the
// plain file-read fallback must yield identical records, including after
// a close/reopen cycle (recovery re-verifies segments through whichever
// path is configured).
func TestMmapScanMatchesFileScan(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts()
	s := mustOpen(t, dir, opt)
	topics := populateStore(t, s, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	optOff := opt
	optOff.noMmap = true

	mm := mustOpen(t, dir, opt)
	plain := mustOpen(t, dir, optOff)
	defer mm.Close()
	defer plain.Close()

	for _, topic := range topics {
		got := scanAll(mm, topic)
		want := scanAll(plain, topic)
		if len(got) == 0 {
			t.Fatalf("topic %s: empty scan", topic)
		}
		if len(got) != len(want) {
			t.Fatalf("topic %s: mmap scan %d records, file scan %d", topic, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("topic %s rec[%d]: mmap %+v vs file %+v", topic, i, got[i], want[i])
			}
		}
		// Ranged scans hit the sparse index + mid-segment start offsets.
		for _, r := range []struct{ from, to int64 }{{0, 500}, {1_000, 3_000}, {2_500, 9_000}} {
			a := mm.Scan(topic, r.from, r.to)
			b := plain.Scan(topic, r.from, r.to)
			if len(a) != len(b) {
				t.Fatalf("topic %s range [%d,%d): %d vs %d records", topic, r.from, r.to, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("topic %s range rec[%d]: %+v vs %+v", topic, i, a[i], b[i])
				}
			}
		}
	}
}

// TestMmapSegmentsAreMapped asserts the default path actually maps sealed
// segments (on unix), and that noMmap leaves them unmapped — so the
// differential test above genuinely compares the two modes.
func TestMmapSegmentsAreMapped(t *testing.T) {
	dir := t.TempDir()
	opt := smallOpts()
	s := mustOpen(t, dir, opt)
	defer s.Close()
	for i := 0; i < 64; i++ { // several sealed 16-record segments
		if err := s.Append("t", rec(int32(i), int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	tp := s.topics["t"]
	if len(tp.segs) == 0 {
		s.mu.Unlock()
		t.Fatal("no sealed segments")
	}
	mapped := 0
	for _, sf := range tp.segs {
		if sf.data != nil {
			mapped++
		}
	}
	s.mu.Unlock()
	if _, err := mmapFile(nil); err == nil {
		t.Fatal("mmapFile(nil) should fail")
	}
	if mapped == 0 {
		// Only acceptable on platforms without mmap support.
		if _, err := os.Open(filepath.Join(dir, "t")); err == nil && isUnixLike() {
			t.Fatal("no sealed segment was memory-mapped on a unix platform")
		}
	}

	off := mustOpen(t, t.TempDir(), Options{SegmentRecords: 16, IndexEvery: 4, noMmap: true})
	defer off.Close()
	for i := 0; i < 64; i++ {
		if err := off.Append("t", rec(int32(i), int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	off.mu.Lock()
	for _, sf := range off.topics["t"].segs {
		if sf.data != nil {
			off.mu.Unlock()
			t.Fatal("noMmap left a segment mapped")
		}
	}
	off.mu.Unlock()
}

func isUnixLike() bool {
	// The build tags decide; probe via a mapped throwaway file.
	f, err := os.CreateTemp("", "mmapprobe")
	if err != nil {
		return false
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if _, err := f.WriteString("x"); err != nil {
		return false
	}
	m, err := mmapFile(f)
	if err != nil {
		return false
	}
	munmapFile(m)
	return true
}

// TestMmapCorruptPrefixRecovery pins the clean-prefix contract through the
// mapped verifier: a segment damaged mid-file reopens with the intact
// prefix in both modes, yielding identical scans.
func TestMmapCorruptPrefixRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, smallOpts())
	for i := 0; i < 32; i++ { // two sealed segments
		if err := s.Append("t", rec(int32(i), int64(i*100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte two-thirds into the first sealed segment's record area.
	segs, err := filepath.Glob(filepath.Join(dir, "t", "t", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	var target string
	for _, p := range segs {
		if strings.HasSuffix(p, segName(1)) {
			target = p
		}
	}
	if target == "" {
		target = segs[0]
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*2/3] ^= 0xFF
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mm := mustOpen(t, dir, smallOpts())
	got := scanAll(mm, "t")
	mm.Close()

	optOff := smallOpts()
	optOff.noMmap = true
	plain := mustOpen(t, dir, optOff)
	want := scanAll(plain, "t")
	plain.Close()

	if len(got) == 0 || len(got) >= 32 {
		t.Fatalf("clean prefix scan has %d records, want a proper subset", len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("mmap %d records vs file %d after corruption", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rec[%d]: mmap %+v vs file %+v", i, got[i], want[i])
		}
	}
}
