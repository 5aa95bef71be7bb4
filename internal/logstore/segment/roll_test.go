package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
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
	// Every file's metadata in memory — the wal's too — is what its frames
	// rebuild.
	tp := s.topics["t"]
	for _, sf := range append(slices.Clone(tp.segs), &tp.act) {
		fromFile, _, err := readFile(sf.path, s.opt.indexEvery, nil)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !slices.Equal(sf.index, fromFile.index) || sf.count != fromFile.count || sf.minMs != fromFile.minMs || sf.maxMs != fromFile.maxMs {
			t.Fatalf("%s: file %d's index, count or bounds in memory are not what its frames rebuild", stage, sf.seq)
		}
	}
}

// encodeFile is a record file of recs as a one-shot writer makes it: the
// header, then one frame per record.
func encodeFile(recs []logstore.Record) []byte {
	buf, prev := slices.Clone(fileHeader), int64(0)
	for _, r := range recs {
		buf = appendFrame(buf, appendRecord(nil, prev, r))
		prev = r.ArrivalMs
	}
	return buf
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
	if n := len(s.topics["t"].segs); n != 1 {
		t.Fatalf("%d segments, want 1", n)
	}
	if next, err := os.ReadFile(walPathOf(t, dir, "t")); err != nil || !bytes.Equal(next, fileHeader) {
		t.Fatalf("the next wal holds %q (%v), want the header alone", next, err)
	}
}

// TestRolledSegmentEqualsWrittenSegment: a rolled wal is, byte for byte,
// the file a one-shot writer makes of the same records, and the index kept
// while appending is the one openSegment rebuilds from that file.
func TestRolledSegmentEqualsWrittenSegment(t *testing.T) {
	dir := t.TempDir()
	opt := Options{segmentRecords: 50, indexEvery: 4} // a last index stride of two records
	s := mustOpen(t, dir, opt)
	defer s.Close()
	recs := orderedRecs(50, -300)
	s.AppendBatch("t", recs[:7]) // batch edges inside index strides
	s.AppendBatch("t", recs[7:])
	if n := len(s.topics["t"].segs); n != 1 {
		t.Fatalf("%d segments, want 1", n)
	}
	rolled := s.topics["t"].segs[0]
	if got := readDirFiles(t, filepath.Dir(rolled.path))[segName(1)]; len(got) == 0 || !bytes.Equal(got, encodeFile(recs)) {
		t.Fatalf("rolled segment is %d bytes, the one-shot file %d, or they differ", len(got), len(encodeFile(recs)))
	}
	reopened, err := openSegment(rolled.path, 1, opt.indexEvery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rolled.index, reopened.index) {
		t.Errorf("index kept while appending differs from the file's:\n got %v\nwant %v", rolled.index, reopened.index)
	}
	if rolled.count != reopened.count || rolled.live != reopened.live || rolled.minMs != reopened.minMs || rolled.maxMs != reopened.maxMs {
		t.Errorf("rolled segment holds %d/%d records over [%d, %d], the file %d/%d over [%d, %d]", rolled.count, rolled.live,
			rolled.minMs, rolled.maxMs, reopened.count, reopened.live, reopened.minMs, reopened.maxMs)
	}
}

// TestRollCrashMatrix reopens each directory state a process killed inside
// a roll can leave: every appended record is there, appends go on, and a
// truncation inside the rolled segment cuts it in place.
func TestRollCrashMatrix(t *testing.T) {
	opt := smallOpts()
	recs := orderedRecs(16, 0)
	mem := logstore.New(0)
	mem.AppendBatch("t", slices.Clone(recs)) // the store keeps what it is handed

	// before: the wal full and fsynced, not yet renamed. after: the roll done.
	before, after := t.TempDir(), t.TempDir()
	s := mustOpen(t, before, Options{segmentRecords: 1 << 20})
	s.AppendBatch("t", recs)
	s.Close()
	s = mustOpen(t, after, opt)
	s.AppendBatch("t", recs)
	if n := len(s.topics["t"].segs); n != 1 {
		t.Fatalf("%d segments, want 1", n)
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
			if got := readDirFiles(t, filepath.Dir(first.path))[segName(1)]; first.count >= 16 || !bytes.Equal(got, encodeFile(recs[:first.count])) {
				t.Fatalf("the straddled segment was not cut to its first %d records: %d bytes", first.count, len(got))
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEverySealRolls: what once made a wal something other than its segment
// — Expire masking its frames, a replay meeting expired frames, TruncateFrom
// cutting it — leaves it the segment: the next seal renames the very file,
// and the store goes on scanning what the memory store scans, reopened too.
func TestEverySealRolls(t *testing.T) {
	opt := Options{segmentRecords: 16, indexEvery: 4, ttlMs: 1000}
	head, tail := orderedRecs(8, 5000), orderedRecs(16, 5100)
	triggers := map[string]func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store{
		"wal masked by Expire": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			if r1, r2 := s.Expire(6010), mem.Expire(6010); r1 != r2 || r1 == 0 {
				t.Fatalf("Expire removed %d, memory store %d", r1, r2)
			}
			return s
		},
		"expired frames replayed": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			s.Expire(6010)
			mem.Expire(6010)
			s.Close()
			return mustOpen(t, dir, opt)
		},
		"wal cut by TruncateFrom": func(t *testing.T, s *Store, mem *logstore.Store, dir string) *Store {
			if r1, r2 := s.TruncateFrom("t", 5020), mem.TruncateFrom("t", 5020); r1 != r2 || r1 == 0 {
				t.Fatalf("TruncateFrom removed %d, memory store %d", r1, r2)
			}
			return s
		},
	}
	for name, trigger := range triggers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, mem := mustOpen(t, dir, opt), logstore.New(opt.ttlMs)
			s.AppendBatch("t", head)
			mem.AppendBatch("t", slices.Clone(head))
			s = trigger(t, s, mem, dir)
			mustMatch(t, "after the trigger", s, mem)
			wal, err := os.Stat(walPathOf(t, dir, "t"))
			if err != nil {
				t.Fatal(err)
			}
			s.AppendBatch("t", tail) // past the threshold whatever the trigger removed
			mem.AppendBatch("t", slices.Clone(tail))
			seg, err := os.Stat(filepath.Join(dir, "t", "t", segName(1)))
			if err != nil || !os.SameFile(wal, seg) {
				t.Fatalf("the sealed segment is not the file the wal was (%v)", err)
			}
			mustMatch(t, "after the seal", s, mem)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = mustOpen(t, dir, opt)
			defer s.Close()
			mustMatch(t, "reopened", s, mem)
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

// TestRefusesRegistryLayout: a store directory that still holds a
// template-registry file of the earlier layout does not open — Open names
// the file — and is left byte for byte as it was, topics included; a bare
// one does not gain its topics directory.
func TestRefusesRegistryLayout(t *testing.T) {
	for _, name := range []string{"registry.snap", "registry.delta"} {
		for _, withRecords := range []bool{true, false} {
			dir := t.TempDir()
			if withRecords {
				s := mustOpen(t, dir, smallOpts())
				if _, err := s.AppendBatch("t", orderedRecs(40, 0)); err != nil {
					t.Fatal(err)
				}
				s.Close()
			}
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte("PSEGREG1"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := readTree(t, dir)

			s, err := Open(dir, smallOpts())
			if err == nil {
				s.Close()
				t.Fatalf("%s (records %v): the earlier layout opened", name, withRecords)
			}
			if !errors.Is(err, errRegistryLayout) || !strings.Contains(err.Error(), path) {
				t.Fatalf("%s (records %v): Open: %v, want %s refused", name, withRecords, err, path)
			}
			if after := readTree(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatalf("%s (records %v): the refused directory changed: %d entries before, %d after", name, withRecords, len(before), len(after))
			}
		}
	}
}

// readTree maps every file under dir to its bytes, and every directory
// (with a trailing slash) to nil.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || d.IsDir() {
			tree[rel+"/"] = nil
			return err
		}
		tree[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
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
		if err := os.WriteFile(filepath.Join(topic, name), encodeFile(recs), 0o644); err != nil {
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

// TestDiskErrorRefusesAppends: a disk error — the next wal cannot be
// created, the segment's name is taken so the rename fails, a wal write
// fails — ends the batch with that error and the count of records whose
// frames reached the OS, and every later append is refused with it. Scans go
// on serving what the files hold, and a reopened store holds exactly what
// was accepted. Before the error, a record behind the newest is refused for
// its order alone.
func TestDiskErrorRefusesAppends(t *testing.T) {
	opt := Options{segmentRecords: 16, indexEvery: 4}
	faults := []struct {
		name   string
		inject func(t *testing.T, s *Store, topic string) (undo func())
		scans  bool // the store can still read its wal
	}{
		{"next wal cannot be created", func(t *testing.T, s *Store, topic string) func() {
			return blockName(t, filepath.Join(topic, walName(2)))
		}, true},
		{"segment name taken", func(t *testing.T, s *Store, topic string) func() {
			return blockName(t, filepath.Join(topic, segName(1)))
		}, true},
		{"wal write fails", func(t *testing.T, s *Store, topic string) func() {
			s.topics["t"].wal.Close()
			return func() {}
		}, false},
	}
	for _, fc := range faults {
		t.Run(fc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, opt)
			recs := orderedRecs(41, 100)
			if n, err := s.AppendBatch("t", recs[:3]); n != 3 || err != nil {
				t.Fatal(n, err)
			}
			if err := s.Append("t", rec(0, 0)); err != logstore.ErrUnsortedAppend || s.Err() != nil {
				t.Fatalf("append behind the newest: %v, sticky %v", err, s.Err())
			}
			undo := fc.inject(t, s, filepath.Join(dir, "t", "t"))

			n, err := s.AppendBatch("t", recs[3:])
			if n >= len(recs)-3 || err == nil || err == logstore.ErrUnsortedAppend || err != s.Err() {
				t.Fatalf("batch at a disk fault took %d of %d (%v), sticky %v", n, len(recs)-3, err, s.Err())
			}
			accepted := 3 + n
			if err2 := s.Append("t", recs[len(recs)-1]); err2 != err {
				t.Fatalf("append after the fault: %v, want %v", err2, err)
			}
			if n2, err2 := s.AppendBatch("t", recs[accepted:]); n2 != 0 || err2 != err {
				t.Fatalf("batch after the fault took %d (%v), want 0 and %v", n2, err2, err)
			}
			if got := s.Scan("t", 0, 1<<62); fc.scans && !reflect.DeepEqual(got, recs[:accepted]) {
				t.Fatalf("store scans %d records, accepted %d", len(got), accepted)
			}
			if cerr := s.Close(); cerr != err {
				t.Fatalf("Close: %v, want %v", cerr, err)
			}
			undo()
			r := mustOpen(t, dir, opt)
			defer r.Close()
			if got := r.Scan("t", 0, 1<<62); !reflect.DeepEqual(got, recs[:accepted]) {
				t.Fatalf("reopened store holds %d records, accepted %d", len(got), accepted)
			}
		})
	}
}

// blockName puts a non-empty directory at path, so that neither creating
// nor renaming onto it can succeed, and returns its remover.
func blockName(t *testing.T, path string) func() {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealedSegmentsHoldNoDescriptors: a sealed segment is a path and its
// metadata — sealing segments leaves the process's open descriptors where
// they were with none, and scanning them leaves none behind.
func TestSealedSegmentsHoldNoDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	s := mustOpen(t, t.TempDir(), smallOpts())
	defer s.Close()
	s.Append("t", rec(0, 0))
	before := openFDs()
	const segs = 200
	if n, err := s.AppendBatch("t", orderedRecs(segs*16, 10)); n != segs*16 || err != nil {
		t.Fatal(n, err)
	}
	if got := len(s.topics["t"].segs); got != segs {
		t.Fatalf("%d segments, want %d", got, segs)
	}
	if got := s.Len("t"); got != segs*16+1 {
		t.Fatalf("Len %d, want %d", got, segs*16+1)
	}
	if len(s.Scan("t", 0, 1<<62)) != segs*16+1 {
		t.Fatal("scan lost records")
	}
	if after := openFDs(); after != before {
		t.Fatalf("%d open descriptors with %d sealed segments, %d with none", after, segs, before)
	}
}

// TestWatermarkWrittenOnlyWhenItMasks: an Expire that leaves no record
// below its cutoff on disk writes no watermark file, and the store reopens
// to the same scan; one that half-expires a segment writes it; and a record
// arriving below the cutoff — which only an emptied topic accepts — is
// live, as the in-memory store keeps it: the topic's expired files and its
// watermark go first, so the record stays live after a restart.
func TestWatermarkWrittenOnlyWhenItMasks(t *testing.T) {
	dir := t.TempDir()
	opt := Options{segmentRecords: 16, indexEvery: 4, ttlMs: 1000}
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
	if _, err := os.Stat(wmPath); !os.IsNotExist(err) {
		t.Fatalf("the watermark file outlived the topic's expired records (%v)", err)
	}
	if got := s.Scan("t", -1<<62, 1<<62); !reflect.DeepEqual(got, []logstore.Record{rec(9, 5900)}) {
		t.Fatalf("after an arrival below the cutoff the topic scans %v, want that record alone", got)
	}
	reopen("late arrival below the cutoff")
	s.Close()
}

// TestInOrderAppendAllocBudget: appending in-order records to a warm topic
// allocates a segment's bookkeeping per seal — its index, its names — and
// nothing per record: no second encoding, no copy of the record.
func TestInOrderAppendAllocBudget(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	per := s.opt.segmentRecords
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
	fill(2 * per) // warm: encode buffers and index at their sizes
	seals := s.topics["t"].act.seq
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill(8 * per)
	runtime.ReadMemStats(&after)
	if got := s.topics["t"].act.seq - seals; got < 8 {
		t.Fatalf("%d seals while measuring, want at least 8", got)
	}
	const budget = 2 // bytes per record: 0.7 measured, 168 when every seal rewrote
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(budget*8*per) {
		t.Errorf("8 × %d in-order records allocated %d bytes, %.1f per record, budget %d", per, got, float64(got)/float64(8*per), budget)
	}
}
