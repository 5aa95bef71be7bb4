package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pinsql/internal/logstore"
)

// orderedRecs returns n records with non-decreasing arrivals from startMs,
// repeating some so ties cross index strides and segment boundaries.
func orderedRecs(n int, startMs int64) []logstore.Record {
	recs := make([]logstore.Record, n)
	for i := range recs {
		recs[i] = rec(int32(i%7), startMs+int64(i/3)*10)
	}
	return recs
}

// mustMatch fails unless the segment store holds, in scan order, what the
// in-memory store fed the same calls holds.
func mustMatch(t *testing.T, stage string, s *Store, mem *logstore.Store) {
	t.Helper()
	got, want := s.Scan("t", -1<<62, 1<<62), mem.Scan("t", -1<<62, 1<<62)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: segment store scans %d records, memory store %d, or they differ", stage, len(got), len(want))
	}
	if got, want := s.Len("t"), mem.Len("t"); got != want {
		t.Fatalf("%s: Len %d, memory store %d", stage, got, want)
	}
	// Whichever way a segment was sealed, its index is the file's.
	for _, sf := range s.topics["t"].segs {
		fromFile, err := openSegment(sf.path, sf.seq, s.opt.IndexEvery, true)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		fromFile.close()
		if !reflect.DeepEqual(sf.index, fromFile.index) || sf.count != fromFile.count || sf.minMs != fromFile.minMs || sf.maxMs != fromFile.maxMs {
			t.Fatalf("%s: segment %d's index, count or bounds in memory are not what its file rebuilds", stage, sf.seq)
		}
	}
}

// TestRollKeepsTheWalFile: sealing an in-order wal renames it — the segment
// is the file the records were appended to, not a copy.
func TestRollKeepsTheWalFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, smallOpts())
	defer s.Close()
	recs := orderedRecs(16, 1000)
	s.AppendBatch("t", recs[:15])
	wal, err := os.Stat(walPathOf(t, dir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("t", recs[15]); err != nil { // the 16th record seals
		t.Fatal(err)
	}
	seg, err := os.Stat(filepath.Join(dir, "t", "t", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(wal, seg) {
		t.Fatal("the sealed segment is not the file the wal was")
	}
	if s.rolls != 1 || s.rewrites != 0 {
		t.Fatalf("%d rolls, %d rewrites, want 1 and 0", s.rolls, s.rewrites)
	}
	if next, err := os.ReadFile(walPathOf(t, dir, "t")); err != nil || !bytes.Equal(next, fileHeader) {
		t.Fatalf("the next wal holds %q (%v), want the header alone", next, err)
	}
}

// TestRolledSegmentEqualsWrittenSegment: a rolled wal is, byte for byte, the
// file writeSegment makes of the same records, and the index kept while
// appending is the one openSegment rebuilds from that file.
func TestRolledSegmentEqualsWrittenSegment(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentRecords: 50, IndexEvery: 4} // a last index stride of two records
	s := mustOpen(t, dir, opt)
	defer s.Close()
	recs := orderedRecs(50, -300)
	s.AppendBatch("t", recs[:7]) // batch edges inside index strides
	s.AppendBatch("t", recs[7:])
	if s.rolls != 1 {
		t.Fatalf("%d rolls, want 1", s.rolls)
	}
	rolled := s.topics["t"].segs[0]

	written, err := writeSegment(t.TempDir(), 1, recs, opt.IndexEvery, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer written.close()
	got, _ := os.ReadFile(rolled.path)
	want, _ := os.ReadFile(written.path)
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("rolled segment is %d bytes, written one %d, or they differ", len(got), len(want))
	}
	reopened, err := openSegment(rolled.path, 1, opt.IndexEvery, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.close()
	for who, sf := range map[string]*segfile{"written": written, "reopened": reopened} {
		if !reflect.DeepEqual(rolled.index, sf.index) {
			t.Errorf("index kept while appending differs from the %s segment's:\n got %v\nwant %v", who, rolled.index, sf.index)
		}
		if rolled.count != sf.count || rolled.live != sf.live || rolled.minMs != sf.minMs || rolled.maxMs != sf.maxMs {
			t.Errorf("rolled segment holds %d/%d records over [%d, %d], the %s one %d/%d over [%d, %d]", rolled.count, rolled.live,
				rolled.minMs, rolled.maxMs, who, sf.count, sf.live, sf.minMs, sf.maxMs)
		}
	}
}

// TestRollCrashMatrix reopens each directory state a process killed inside
// a roll can leave: every appended record is there, appends go on, and a
// truncation inside the rolled segment still rewrites it.
func TestRollCrashMatrix(t *testing.T) {
	opt := smallOpts()
	recs := orderedRecs(16, 0)
	mem := logstore.New(0)
	mem.AppendBatch("t", slices.Clone(recs)) // the store keeps what it is handed

	// before: the wal full and fsynced, not yet renamed. after: the roll done.
	before, after := t.TempDir(), t.TempDir()
	s := mustOpen(t, before, Options{SegmentRecords: 1 << 20})
	s.AppendBatch("t", recs)
	s.Close()
	s = mustOpen(t, after, opt)
	s.AppendBatch("t", recs)
	if s.rolls != 1 {
		t.Fatalf("%d rolls, want 1", s.rolls)
	}
	s.Close()
	nextWal := filepath.Join("t", "t", walName(2))

	states := map[string]func(dir string){
		"fsynced, not renamed": func(dir string) { cloneTopicDir(t, before, dir) },
		"renamed, no new wal": func(dir string) {
			cloneTopicDir(t, after, dir)
			os.Remove(filepath.Join(dir, nextWal))
		},
		"new wal created, header not written": func(dir string) {
			cloneTopicDir(t, after, dir)
			os.Truncate(filepath.Join(dir, nextWal), 0)
		},
		"new wal torn inside its header": func(dir string) {
			cloneTopicDir(t, after, dir)
			os.Truncate(filepath.Join(dir, nextWal), int64(len(fileHeader)-2))
		},
		"new wal written, directory not synced": func(dir string) { cloneTopicDir(t, after, dir) },
	}
	for name, build := range states {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			build(dir)
			s := mustOpen(t, dir, opt)
			defer s.Close()
			want := logstore.New(0)
			want.AppendBatch("t", slices.Clone(recs))
			mustMatch(t, "reopened", s, want)

			more := orderedRecs(20, 100)
			s.AppendBatch("t", more)
			want.AppendBatch("t", slices.Clone(more))
			mustMatch(t, "appended to", s, want)
			if len(s.topics["t"].segs) != 2 {
				t.Fatalf("%d segments after 36 records of 16 a segment, want 2", len(s.topics["t"].segs))
			}

			if got, want := s.TruncateFrom("t", 30), want.TruncateFrom("t", 30); got != want || got == 0 {
				t.Fatalf("TruncateFrom removed %d, memory store %d", got, want)
			}
			mustMatch(t, "truncated", s, want)
			first := s.topics["t"].segs[0]
			if reopened, err := openSegment(first.path, 1, opt.IndexEvery, false); err != nil || reopened.count != first.count || first.count >= 16 {
				t.Fatalf("the straddled segment was not rewritten: %d records in memory, file %+v (%v)", first.count, reopened, err)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFallbackTriggersRewrite: every event that makes the wal something
// other than its segment sends the seal down the rewrite path, and the
// store goes on scanning what the memory store scans, reopened too.
func TestFallbackTriggersRewrite(t *testing.T) {
	opt := Options{SegmentRecords: 16, IndexEvery: 4, TTLMs: 1000}
	head, tail := orderedRecs(8, 5000), orderedRecs(16, 5100)
	triggers := map[string]func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store{
		"memtable trimmed by Expire": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			if r1, r2 := s.Expire(6010), mem.Expire(6010); r1 != r2 || r1 == 0 {
				t.Fatalf("Expire removed %d, memory store %d", r1, r2)
			}
			return s
		},
		"replay filtered expired frames": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			s.Expire(6010)
			mem.Expire(6010)
			s.Close()
			return mustOpen(t, dir, opt)
		},
		"wal rewritten by TruncateFrom": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			if r1, r2 := s.TruncateFrom("t", 5020), mem.TruncateFrom("t", 5020); r1 != r2 || r1 == 0 {
				t.Fatalf("TruncateFrom removed %d, memory store %d", r1, r2)
			}
			return s
		},
		"wal write error": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			s.topics["t"].wal.Close()
			return s
		},
	}
	for name, trigger := range triggers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, mem := mustOpen(t, dir, opt), logstore.New(opt.TTLMs)
			s.AppendBatch("t", head)
			mem.AppendBatch("t", slices.Clone(head))
			s = trigger(t, s, mem, dir)
			if s.topics["t"].inOrder && name != "wal write error" { // a write error shows at the next write
				t.Fatal("the wal still passes for its segment")
			}
			mustMatch(t, "after the trigger", s, mem)
			s.AppendBatch("t", tail) // past the threshold whatever the trigger removed
			mem.AppendBatch("t", slices.Clone(tail))
			if s.rewrites != 1 || s.rolls != 0 {
				t.Fatalf("%d rewrites, %d rolls, want 1 and 0", s.rewrites, s.rolls)
			}
			mustMatch(t, "after the seal", s, mem)
			wantErr := name == "wal write error"
			if err := s.Close(); (err != nil) != wantErr {
				t.Fatalf("Close: %v", err)
			}
			if wantErr {
				return // the records behind the failed write were never on disk
			}
			s = mustOpen(t, dir, opt)
			defer s.Close()
			mustMatch(t, "reopened", s, mem)
			// A fresh wal starts in order again whatever its predecessor was.
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			rolls := s.rolls
			s.AppendBatch("t", orderedRecs(16, 6000))
			mem.AppendBatch("t", orderedRecs(16, 6000))
			if s.rolls != rolls+1 {
				t.Fatalf("%d rolls after an in-order wal, want %d", s.rolls, rolls+1)
			}
			mustMatch(t, "after the roll", s, mem)
		})
	}
}

// writeV1Topic lays out a topic directory as format version 1 wrote it: a
// sealed segment whose header carries count, minMs and maxMs, and an active
// wal of "PSEGWAL1" followed directly by record frames.
func writeV1Topic(t *testing.T, dir string, sealed, active []logstore.Record) {
	t.Helper()
	frames := func(buf []byte, recs []logstore.Record) []byte {
		prev := int64(0)
		for _, r := range recs {
			buf = appendFrame(buf, appendRecord(nil, prev, r))
			prev = r.ArrivalMs
		}
		return buf
	}
	hdr := binary.AppendUvarint(nil, 1)
	hdr = binary.AppendUvarint(hdr, uint64(len(sealed)))
	hdr = binary.AppendVarint(hdr, sealed[0].ArrivalMs)
	hdr = binary.AppendVarint(hdr, sealed[len(sealed)-1].ArrivalMs)
	topic := filepath.Join(dir, "t", "t")
	if err := os.MkdirAll(topic, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		segName(1): frames(appendFrame([]byte(segMagic), hdr), sealed),
		walName(2): frames([]byte(walMagicV1), active),
	} {
		if err := os.WriteFile(filepath.Join(topic, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefusesVersion1Layout: a directory written before the wal and the
// segment shared a layout does not open — Open names the file and its
// version — and is left byte for byte as it was. The wal row matters most:
// an unrecognised wal is created anew, which would truncate this one.
func TestRefusesVersion1Layout(t *testing.T) {
	for _, tc := range []struct {
		name, refused string
		dropSegment   bool
	}{
		{name: "segment", refused: segName(1)},
		{name: "wal", refused: walName(2), dropSegment: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeV1Topic(t, dir, orderedRecs(16, 0), orderedRecs(10, 200))
			topic := filepath.Join(dir, "t", "t")
			if tc.dropSegment {
				if err := os.Remove(filepath.Join(topic, segName(1))); err != nil {
					t.Fatal(err)
				}
			}
			before := readDirFiles(t, topic)

			s, err := Open(dir, smallOpts())
			if err == nil {
				s.Close()
				t.Fatal("a version-1 layout opened")
			}
			if !errors.Is(err, errUnsupportedVersion) ||
				!strings.Contains(err.Error(), filepath.Join(topic, tc.refused)) ||
				!strings.HasSuffix(err.Error(), "unsupported version 1") {
				t.Fatalf("Open: %v, want %s refused as unsupported version 1", err, tc.refused)
			}
			if after := readDirFiles(t, topic); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// writeTopicFiles lays out a topic directory of this format version: each
// file the header and the given records' frames.
func writeTopicFiles(t *testing.T, dir string, files map[string][]logstore.Record) {
	t.Helper()
	topic := filepath.Join(dir, "t", "t")
	if err := os.MkdirAll(topic, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, recs := range files {
		buf, prev := slices.Clone(fileHeader), int64(0)
		for _, r := range recs {
			buf = appendFrame(buf, appendRecord(nil, prev, r))
			prev = r.ArrivalMs
		}
		if err := os.WriteFile(filepath.Join(topic, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefusesOutOfOrderTopic: a topic whose files do not continue each
// other's arrival order — a wal frame behind its predecessor, a segment
// that starts before the previous one ends, a wal that starts before the
// last segment ends — does not open: Open names the file, and the
// directory is left byte for byte as it was. An in-order layout of the same
// files opens.
func TestRefusesOutOfOrderTopic(t *testing.T) {
	for _, tc := range []struct {
		name, refused string
		files         map[string][]logstore.Record
	}{
		{"wal frame behind its predecessor", walName(1), map[string][]logstore.Record{
			walName(1): {rec(0, 100), rec(1, 300), rec(2, 200)},
		}},
		{"segment starts before the previous ends", segName(2), map[string][]logstore.Record{
			segName(1): orderedRecs(8, 1000),
			segName(2): orderedRecs(8, 1010),
			walName(3): orderedRecs(4, 2000),
		}},
		{"wal starts before the last segment ends", walName(2), map[string][]logstore.Record{
			segName(1): orderedRecs(8, 1000),
			walName(2): orderedRecs(4, 1010),
		}},
		{"in order", "", map[string][]logstore.Record{
			segName(1): orderedRecs(8, 1000),
			segName(2): orderedRecs(8, 1020),
			walName(3): orderedRecs(4, 1040),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTopicFiles(t, dir, tc.files)
			topic := filepath.Join(dir, "t", "t")
			before := readDirFiles(t, topic)

			s, err := Open(dir, smallOpts())
			if tc.refused == "" {
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if got := s.Len("t"); got != 20 {
					t.Fatalf("Len %d, want 20", got)
				}
				return
			}
			if err == nil {
				s.Close()
				t.Fatal("an out-of-order topic opened")
			}
			if !errors.Is(err, errOutOfOrder) || !strings.Contains(err.Error(), filepath.Join(topic, tc.refused)) {
				t.Fatalf("Open: %v, want %s refused as out of order", err, tc.refused)
			}
			if after := readDirFiles(t, topic); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// readDirFiles returns every file of dir by name.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestFailedSealIsNotRetriedPerRecord: with the segment's name taken by a
// directory neither seal path can finish; the batch behind the failure is
// kept, readable, and costs a bounded number of attempts — not one, each
// re-encoding the whole memtable, per record.
func TestFailedSealIsNotRetriedPerRecord(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentRecords: 64, IndexEvery: 8}
	s := mustOpen(t, dir, opt)
	s.Append("t", rec(0, 0))
	blocker := filepath.Join(dir, "t", "t", segName(1), "x")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	recs := orderedRecs(3*opt.SegmentRecords, 10)
	if n, err := s.AppendBatch("t", recs); n != len(recs) || err != nil {
		t.Fatalf("batch behind a failing seal took %d of %d (%v)", n, len(recs), err)
	}
	if s.Err() == nil {
		t.Fatal("the failed seal left no sticky error")
	}
	if attempts := s.rolls + s.rewrites + s.sealErrs; attempts != 1 || s.sealErrs != 1 {
		t.Fatalf("%d seal attempts (%d failed) inside one append, want 1", attempts, s.sealErrs)
	}
	if got := s.Scan("t", 0, 1<<62); len(got) != len(recs)+1 || !reflect.DeepEqual(got[1:], recs) {
		t.Fatalf("store returns %d records, want %d", len(got), len(recs)+1)
	}
	// The next call tries again, once; with the name free it succeeds, and
	// the wal — untouched by the failures — still rolls.
	if err := os.RemoveAll(filepath.Dir(blocker)); err != nil {
		t.Fatal(err)
	}
	s.Append("t", rec(1, 1<<20))
	if s.rolls != 1 || s.sealErrs != 1 {
		t.Fatalf("after the name was freed: %d rolls, %d failures, want 1 and 1", s.rolls, s.sealErrs)
	}
	s.Close() // the sticky error stays
	r := mustOpen(t, dir, opt)
	defer r.Close()
	if got := r.Len("t"); got != len(recs)+2 {
		t.Fatalf("reopened store holds %d records, want %d", got, len(recs)+2)
	}
}

// TestWatermarkWrittenOnlyWhenItMasks: an Expire that leaves no record
// below its cutoff on disk writes no watermark file, and the store reopens
// to the same scan; one that half-expires a segment writes it; and a record
// arriving below an unwritten cutoff — which only an emptied topic accepts
// — has the file written first, so it is as invisible after a restart as it
// was before.
func TestWatermarkWrittenOnlyWhenItMasks(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentRecords: 16, IndexEvery: 4, TTLMs: 1000}
	wmPath := filepath.Join(dir, "t", "t", "watermark")
	s := mustOpen(t, dir, opt)
	s.AppendBatch("t", orderedRecs(40, 5000)) // two segments and a wal, arrivals 5000–5130
	reopen := func(stage string) {
		t.Helper()
		want := s.Scan("t", -1<<62, 1<<62)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, opt)
		if got := s.Scan("t", -1<<62, 1<<62); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d records before Close, %d after reopening", stage, len(want), len(got))
		}
	}

	if removed := s.Expire(5500); removed != 0 { // cutoff 4500
		t.Fatalf("Expire removed %d, want 0", removed)
	}
	if _, err := os.Stat(wmPath); !os.IsNotExist(err) {
		t.Fatalf("an Expire that removed nothing wrote the watermark (%v)", err)
	}
	if !s.topics["t"].inOrder {
		t.Fatal("an Expire that removed nothing cost the wal its order")
	}
	reopen("nothing expired")

	if removed := s.Expire(6020); removed != 6 { // cutoff 5020: six records of the first segment
		t.Fatalf("Expire removed %d, want 6", removed)
	}
	if got := readWatermark(filepath.Dir(wmPath)); got != 5020 {
		t.Fatalf("watermark file holds %d after a segment was half expired, want 5020", got)
	}
	reopen("segment half expired")

	// Everything sealed, then wholly expired: no record is left on disk
	// below the cutoff, so the file stays behind it.
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if removed := s.Expire(7000); removed != 34 { // cutoff 6000
		t.Fatalf("Expire removed %d, want 34", removed)
	}
	if got := readWatermark(filepath.Dir(wmPath)); got != 5020 {
		t.Fatalf("watermark file holds %d after whole segments expired, want 5020", got)
	}
	if err := s.Append("t", rec(9, 5900)); err != nil { // below the cutoff no file records yet
		t.Fatal(err)
	}
	if got := readWatermark(filepath.Dir(wmPath)); got != 6000 {
		t.Fatalf("watermark file holds %d after an arrival below the cutoff, want 6000", got)
	}
	reopen("late arrival below the cutoff")
	s.Close()
}

// TestInOrderAppendAllocBudget: appending in-order records to a warm topic
// allocates a segment's bookkeeping per seal — its index, its names — and
// nothing per record: no second encoding, no regrown memtable.
func TestInOrderAppendAllocBudget(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	per := s.opt.SegmentRecords
	batch := make([]logstore.Record, per/4+1) // seals fall inside batches
	clock := int64(0)
	fill := func(records int) {
		for done := 0; done < records; done += len(batch) {
			for i := range batch {
				clock += int64(i % 3)
				batch[i] = logstore.Record{TemplateIdx: int32(i % 40), ArrivalMs: clock, ResponseMs: float64(i%97) / 4, ExaminedRows: int64(i % 1000)}
			}
			if n, err := s.AppendBatch("t", batch); n != len(batch) || err != nil {
				t.Fatal(n, err)
			}
		}
	}
	fill(2 * per) // warm: memtable, encode buffers and index at their sizes
	rolls := s.rolls
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill(8 * per)
	runtime.ReadMemStats(&after)
	if got := s.rolls - rolls; got < 8 || s.rewrites != 0 {
		t.Fatalf("%d rolls and %d rewrites while measuring, want at least 8 and 0", got, s.rewrites)
	}
	const budget = 2 // bytes per record: 0.7 measured, 168 when every seal rewrote
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(budget*8*per) {
		t.Errorf("8 × %d in-order records allocated %d bytes, %.1f per record, budget %d", per, got, float64(got)/float64(8*per), budget)
	}
}
