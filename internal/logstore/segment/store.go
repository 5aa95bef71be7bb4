package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pinsql/internal/logstore"
)

// Options configures a durable store.
type Options struct {
	// SyncEvery fsyncs a topic's active wal after every SyncEvery
	// appended records, bounding how much a power failure or OS crash can
	// lose. 0 (the default) syncs only at seal and Close: every append is
	// still safe against a *process* crash — frames reach the OS page
	// cache before Append returns — but not against losing the machine.
	SyncEvery int

	// ttlMs is the record time-to-live in milliseconds (default
	// logstore.DefaultTTLMs). segmentRecords seals the active wal once it
	// holds this many records (default 8192), segmentBytes once its size
	// reaches this many bytes (default 1 MiB); indexEvery is the sparse
	// time-index granularity in records (default 64). The package's tests
	// shrink them.
	ttlMs          int64
	segmentRecords int
	segmentBytes   int64
	indexEvery     int
}

func (o Options) withDefaults() Options {
	if o.ttlMs <= 0 {
		o.ttlMs = logstore.DefaultTTLMs
	}
	if o.segmentRecords <= 0 {
		o.segmentRecords = 8192
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 1 << 20
	}
	if o.indexEvery <= 0 {
		o.indexEvery = 64
	}
	return o
}

// topic is the per-topic state: the sealed segments and the active wal,
// each described by its segfile; no record is held in memory.
type topic struct {
	name string
	dir  string
	segs []*segfile // ascending seq

	act       segfile  // the active wal; act.seq is the seq it seals into
	wal       *os.File // its descriptor: appends write it, scans read it
	walBytes  int64
	sinceSync int // wal records appended since the last fsync

	watermark int64 // records with ArrivalMs < watermark are expired
}

// Store is a durable, crash-recoverable logstore.Backend. Directory
// layout:
//
//	<dir>/t/<topic>/NNNNNNNN.seg immutable arrival-ordered segments
//	<dir>/t/<topic>/NNNNNNNN.wal the active write-ahead file
//	<dir>/t/<topic>/watermark    persisted TTL expiry cutoff
//
// Every append continues the topic's arrival order, so a topic's files,
// taken in seq order, are one arrival-ordered sequence, and the files are
// the store's only copy of a record. Appends go to the wal, one CRC frame
// per record and one write per batch stretch; when the wal reaches the
// segment size it is fsynced and renamed into an immutable .seg file, whose
// sparse time index — kept while appending — stays in memory. Scans read
// the segments in seq order, then the wal, each through a descriptor opened
// for the scan (the wal's write descriptor for the wal). Expire deletes
// whole segments below the TTL cutoff in O(1) per segment and persists the
// cutoff as a watermark so partially expired files stay masked across
// restarts. The first disk error refuses every later append. A record names
// its template by TemplateIdx only; the templates are the caller's to keep
// (a durable fleet journals them with the window that interned them).
type Store struct {
	mu     sync.Mutex
	dir    string
	opt    Options
	topics map[string]*topic
	closed bool

	// frames and payload are append's encode buffers, reused under mu.
	frames, payload []byte

	// The sticky error has a leaf lock of its own: Err is read both inside
	// and outside s.mu critical sections.
	errMu sync.Mutex
	err   error // first disk error
}

var _ logstore.Backend = (*Store)(nil)

// Open creates or recovers a durable store rooted at dir. Recovery
// verifies every frame CRC, truncates the torn tail of each topic's
// active wal, removes wal files already sealed into a segment, deletes
// segments wholly below the persisted watermark, and rebuilds the sparse
// indexes. A topic Open cannot continue — a file of format version 1, or
// files out of arrival order — fails it with an error naming the file, and
// that topic's directory is left as it was. So does a directory holding the
// template-registry files of the earlier layout: Open names the file and
// changes nothing.
func Open(dir string, opt Options) (*Store, error) {
	s := &Store{
		dir:    dir,
		opt:    opt.withDefaults(),
		topics: make(map[string]*topic),
	}
	for _, name := range []string{"registry.snap", "registry.delta"} {
		path := filepath.Join(dir, name)
		if _, err := os.Lstat(path); err == nil {
			return nil, fmt.Errorf("segment: %s: %w", path, errRegistryLayout)
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "t"), 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(dir, "t"))
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name, uerr := url.PathUnescape(ent.Name())
		if uerr != nil {
			continue
		}
		t, terr := s.recoverTopic(name, filepath.Join(dir, "t", ent.Name()))
		if terr != nil {
			s.Close()
			return nil, terr
		}
		s.topics[name] = t
	}
	return s, nil
}

// errRegistryLayout marks a store directory of the earlier layout, which
// kept its template registry beside the records: those templates are not
// in the fleet journal, so its records could not be resolved.
var errRegistryLayout = errors.New("template registry of an earlier store layout; templates are now journaled with their windows")

// errOutOfOrder marks a topic whose live records — those at or after its
// watermark — do not continue each other's arrival order: a wal frame
// behind its predecessor, or a file that starts before the previous one
// ends. Expired records are left out: an emptied topic accepts any arrival.
var errOutOfOrder = errors.New("records out of arrival order")

// recoverTopic rebuilds one topic from its directory. Whatever it refuses
// is found before it changes a file, so a refused directory is left as it
// was.
func (s *Store) recoverTopic(name, dir string) (*topic, error) {
	t := &topic{name: name, dir: dir, watermark: readWatermark(dir)}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segSeqs := map[uint64]bool{}
	var walSeqs []uint64
	var tmps []string
	for _, f := range files {
		base := f.Name()
		switch {
		case strings.HasSuffix(base, ".seg"):
			seq, perr := strconv.ParseUint(strings.TrimSuffix(base, ".seg"), 10, 64)
			if perr != nil {
				continue
			}
			sf, oerr := openSegment(filepath.Join(dir, base), seq, s.opt.indexEvery)
			if errors.Is(oerr, errUnsupportedVersion) {
				return nil, oerr
			}
			if oerr != nil {
				continue // unreadable segment: leave the file, skip it
			}
			t.segs = append(t.segs, sf)
			segSeqs[seq] = true
		case strings.HasSuffix(base, ".wal"):
			seq, perr := strconv.ParseUint(strings.TrimSuffix(base, ".wal"), 10, 64)
			if perr != nil {
				continue
			}
			walSeqs = append(walSeqs, seq)
		case strings.HasSuffix(base, ".tmp"):
			tmps = append(tmps, base) // interrupted watermark write
		}
	}
	sort.Slice(t.segs, func(i, j int) bool { return t.segs[i].seq < t.segs[j].seq })
	floor := int64(math.MinInt64) // where the next live record may start
	for _, sf := range t.segs {
		if sf.maxMs < t.watermark {
			continue // wholly expired: removed below
		}
		if sf.minMs < floor {
			return nil, fmt.Errorf("segment: %s: %w", sf.path, errOutOfOrder)
		}
		floor = sf.maxMs
	}

	// A wal whose segment exists was sealed but not yet removed (a crash
	// between a rewrite seal's rename and delete, which earlier versions
	// made): the segment's copy wins.
	active := uint64(0)
	var stale []uint64
	for _, seq := range walSeqs {
		if segSeqs[seq] || seq < active {
			stale = append(stale, seq)
			continue
		}
		if active != 0 {
			stale = append(stale, active)
		}
		active = seq
	}
	if active == 0 {
		for seq := range segSeqs {
			if seq >= active {
				active = seq + 1
			}
		}
		if active == 0 {
			active = 1
		}
	}
	t.act.seq = active
	wal, good, err := s.readWal(filepath.Join(dir, walName(active)), t.watermark, floor)
	if err != nil {
		return nil, err
	}

	for _, base := range tmps {
		os.Remove(filepath.Join(dir, base))
	}
	for _, seq := range stale {
		os.Remove(filepath.Join(dir, walName(seq)))
	}
	keep := t.segs[:0]
	for _, sf := range t.segs {
		if sf.maxMs < t.watermark {
			os.Remove(sf.path) // wholly expired while we were down
			continue
		}
		sf.live = sf.count - t.countBefore(sf, t.watermark)
		keep = append(keep, sf)
	}
	t.segs = keep
	if err := s.replayWal(t, wal, good); err != nil {
		return nil, err
	}
	return t, nil
}

// readWal reads the wal at path without changing it and returns its
// metadata and where its intact frames end; a nil segfile means the wal is
// missing (a fresh topic, or a crash right after a seal) or torn inside its
// header. A version-1 wal is refused, since creating it anew would truncate
// it, and so is one whose live frames — at or after watermark — fall behind
// each other or behind floor, the end of the topic's last live segment.
func (s *Store) readWal(path string, watermark, floor int64) (*segfile, int64, error) {
	ordered := true
	wal, good, err := readFile(path, s.opt.indexEvery, func(rec logstore.Record) {
		if rec.ArrivalMs >= watermark {
			ordered = ordered && rec.ArrivalMs >= floor
			floor = rec.ArrivalMs
		}
	})
	switch {
	case os.IsNotExist(err) || errors.Is(err, errNoHeader):
		return nil, 0, nil
	case err != nil:
		return nil, 0, err
	case !ordered:
		return nil, 0, fmt.Errorf("segment: %s: %w", path, errOutOfOrder)
	}
	return wal, good, nil
}

// replayWal makes the recovered wal the topic's active file, truncating its
// torn tail, and leaves it positioned for appends. A wal readWal did not
// find is created anew.
func (s *Store) replayWal(t *topic, wal *segfile, good int64) error {
	if wal == nil {
		return s.createWal(t)
	}
	f, err := os.OpenFile(wal.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err == nil && good < st.Size() {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Seek(good, 0)
	}
	if err != nil {
		f.Close()
		return err
	}
	wal.seq = t.act.seq
	t.act, t.wal, t.walBytes, t.sinceSync = *wal, f, good, 0
	t.act.live = t.act.count - t.countBefore(&t.act, t.watermark)
	return nil
}

// createWal starts the topic's active wal at t.act.seq: one
// create-or-truncate open, one header write. The previous wal's descriptor
// is the caller's to have closed.
func (s *Store) createWal(t *topic) error {
	t.act = segfile{path: filepath.Join(t.dir, walName(t.act.seq)), seq: t.act.seq, index: t.act.index[:0]}
	t.wal, t.walBytes, t.sinceSync = nil, 0, 0
	f, err := os.OpenFile(t.act.path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(fileHeader); err != nil {
		f.Close()
		return err
	}
	t.wal = f
	t.walBytes = int64(len(fileHeader))
	return nil
}

// getTopic returns the topic, creating its directory and first wal on
// demand when create is set.
func (s *Store) getTopic(name string, create bool) (*topic, error) {
	if t, ok := s.topics[name]; ok {
		return t, nil
	}
	if !create {
		return nil, nil
	}
	dir := filepath.Join(s.dir, "t", url.PathEscape(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topic{name: name, dir: dir, act: segfile{seq: 1}, watermark: math.MinInt64}
	if err := s.createWal(t); err != nil {
		return nil, err
	}
	s.topics[name] = t
	return t, nil
}

// fail records the first disk error; from then on every append is refused
// with it.
func (s *Store) fail(err error) {
	if err == nil {
		return
	}
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Err returns the first disk error hit by the store, if any: every Append
// and AppendBatch since has been refused with it, and Close returns it.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Append stores one record under the topic: AppendBatch of one.
func (s *Store) Append(topicName string, rec logstore.Record) error {
	_, err := s.AppendBatch(topicName, []logstore.Record{rec})
	return err
}

// AppendBatch stores recs under the topic in order, by the in-memory
// store's rule: a record behind the topic's newest live record ends the
// batch with logstore.ErrUnsortedAppend. A disk error — a wal write, fsync,
// create or rename, a watermark write — ends it too: the call
// returns how many records' frames reached the OS before it, and that error,
// and every later call is refused with it. A nil error means all of recs
// was accepted. Though the contract gives recs up, this store keeps none of
// it.
func (s *Store) AppendBatch(topicName string, recs []logstore.Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, os.ErrClosed
	}
	if err := s.Err(); err != nil {
		return 0, err
	}
	t, err := s.getTopic(topicName, true)
	if err != nil {
		s.fail(err)
		return 0, err
	}
	n, err := s.append(t, recs)
	if err != nil && err != logstore.ErrUnsortedAppend {
		s.fail(err)
	}
	return n, err
}

// frameBufBytes bounds the frames one wal.Write carries, and with it the
// encode buffer a store keeps between appends.
const frameBufBytes = 64 << 10

// append writes one frame per record to the wal, sealing when the wal
// reaches the segment size. It stops at the first record behind the topic's
// newest live record, or at the first disk error, and returns how many
// records it took. Frames are encoded into one buffer and written once per
// stretch between seal, SyncEvery and frameBufBytes bounds, so the bytes on
// disk, the seal points and the fsync points are those of a
// record-at-a-time writer, and every accepted frame has been handed to the
// OS before append returns. Callers hold s.mu.
func (s *Store) append(t *topic, recs []logstore.Record) (int, error) {
	newest, has := t.newest()
	buf, prev := s.frames[:0], t.act.maxMs
	defer func() { s.frames = buf[:0] }()
	done := 0 // recs[done:] have not reached the wal
	// flush writes the frames of recs[done:end]; on a failed write the
	// records whose whole frames reached the OS are the wal's.
	flush := func(end int, sync bool) error {
		if end == done {
			return nil
		}
		n, err := t.wal.Write(buf)
		k := end - done
		if err != nil {
			k, n = wholeFrames(buf[:n])
		}
		t.commit(recs[done:done+k], int64(n))
		done += k
		buf = buf[:0]
		if err == nil && sync {
			if err = t.wal.Sync(); err == nil {
				t.sinceSync = 0
			}
		}
		return err
	}
	for i, rec := range recs {
		if has && rec.ArrivalMs < newest {
			if err := flush(i, false); err != nil {
				return done, err
			}
			return i, logstore.ErrUnsortedAppend
		}
		if rec.ArrivalMs < t.watermark {
			// Only a topic without live records takes an arrival behind its
			// expiry cutoff (any other's newest is ahead of it), so its files
			// hold expired records alone, and nothing of this batch precedes
			// the arrival. They go, and the cutoff with them: the arrival is
			// live, as in a topic never expired.
			if err := s.dropExpired(t); err != nil {
				return i, err
			}
			prev = 0
		}
		newest, has = rec.ArrivalMs, true
		if ord := t.act.count + i - done; ord%s.opt.indexEvery == 0 {
			t.act.index = append(t.act.index, indexEntry{firstMs: rec.ArrivalMs, prevMs: prev, off: t.walBytes + int64(len(buf)), recIdx: ord})
		}
		s.payload = appendRecord(s.payload[:0], prev, rec)
		buf = appendFrame(buf, s.payload)
		prev = rec.ArrivalMs
		pending := i + 1 - done
		syncDue := s.opt.SyncEvery > 0 && t.sinceSync+pending >= s.opt.SyncEvery
		sealDue := t.act.count+pending >= s.opt.segmentRecords || t.walBytes+int64(len(buf)) >= s.opt.segmentBytes
		if syncDue || sealDue || i == len(recs)-1 || len(buf) >= frameBufBytes {
			if err := flush(i+1, syncDue); err != nil {
				return done, err
			}
		}
		if sealDue {
			if err := s.seal(t); err != nil {
				return i + 1, err
			}
			prev = 0
		}
	}
	return len(recs), nil
}

// wholeFrames counts the frames that lie wholly in a short write's bytes
// and where they end.
func wholeFrames(data []byte) (k, end int) {
	for {
		_, next, err := nextFrame(data, end)
		if err != nil {
			return k, end
		}
		k, end = k+1, next
	}
}

// commit adds recs, whose frames took n bytes of the wal, to its metadata,
// and drops index entries written ahead for records that did not make it.
func (t *topic) commit(recs []logstore.Record, n int64) {
	for _, rec := range recs {
		if t.act.count == 0 {
			t.act.minMs = rec.ArrivalMs
		}
		if rec.ArrivalMs >= t.watermark {
			t.act.live++
		}
		t.act.count++
		t.act.maxMs = rec.ArrivalMs
	}
	t.walBytes += n
	t.sinceSync += len(recs)
	t.act.trimIndex()
}

// newest returns the arrival of the topic's newest live record; ok is
// false when the topic holds none.
func (t *topic) newest() (ms int64, ok bool) {
	if t.act.live > 0 {
		return t.act.maxMs, true
	}
	for i := len(t.segs) - 1; i >= 0; i-- {
		if t.segs[i].live > 0 {
			return t.segs[i].maxMs, true
		}
	}
	return 0, false
}

// seal turns the active wal into an immutable segment — fsync, then rename
// to the segment's name — and starts a fresh wal. The index kept while
// appending is the segment's. A failed fsync or rename leaves the wal as it
// was. Callers hold s.mu.
func (s *Store) seal(t *topic) error {
	if t.act.count == 0 {
		return nil
	}
	if err := t.wal.Sync(); err != nil {
		return err
	}
	t.sinceSync = 0
	sf := t.act
	sf.path = filepath.Join(t.dir, segName(sf.seq))
	if err := os.Rename(t.act.path, sf.path); err != nil {
		return err
	}
	t.wal.Close()
	t.segs = append(t.segs, &sf)
	t.act = segfile{seq: sf.seq + 1, index: make([]indexEntry, 0, len(sf.index))}
	if err := s.createWal(t); err != nil {
		return err
	}
	syncDir(t.dir)
	return nil
}

// open starts an iterator over file sf at index point e: the active wal is
// read through its write descriptor, a sealed segment through a descriptor
// opened here and released by the iterator's close.
func (t *topic) open(sf *segfile, e indexEntry) (*iter, error) {
	if sf == &t.act {
		return newIter(t.wal, e, sf.count), nil
	}
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, err
	}
	it := newIter(f, e, sf.count)
	it.closer = f
	return it, nil
}

// countBefore returns how many of file sf's records have ArrivalMs <
// cutoff, using the sparse index to skip whole blocks.
func (t *topic) countBefore(sf *segfile, cutoff int64) int {
	if sf.count == 0 || cutoff <= sf.minMs {
		return 0
	}
	if cutoff > sf.maxMs {
		return sf.count
	}
	e := sf.startEntry(cutoff)
	n := e.recIdx
	it, err := t.open(sf, e)
	if err != nil {
		return n
	}
	defer it.close()
	for rec, ok := it.next(); ok && rec.ArrivalMs < cutoff; rec, ok = it.next() {
		n++
	}
	return n
}

// scanLocked streams the records of [fromMs, toMs) in arrival order with
// ingest-order ties: the sealed segments in seq order, then the wal.
// Callers hold s.mu.
func (s *Store) scanLocked(t *topic, fromMs, toMs int64, fn func(logstore.Record) bool) {
	if t == nil {
		return
	}
	fromMs = max(fromMs, t.watermark)
	if fromMs >= toMs {
		return
	}
	// scan reports whether the scan goes on past file sf.
	scan := func(sf *segfile) bool {
		if sf.live == 0 || sf.maxMs < fromMs {
			return true
		}
		// The iterator starts at the sparse-index point before the range.
		it, err := t.open(sf, sf.startEntry(fromMs))
		if err != nil {
			return true
		}
		defer it.close()
		for rec, ok := it.next(); ok; rec, ok = it.next() {
			if rec.ArrivalMs >= fromMs && (rec.ArrivalMs >= toMs || !fn(rec)) {
				return false
			}
		}
		return true
	}
	for _, sf := range t.segs {
		if !scan(sf) {
			return
		}
	}
	scan(&t.act)
}

// ScanFunc streams the records of [fromMs, toMs) in the same order as the
// in-memory store, without materializing a slice. The callback runs under
// the store lock: it must not call back into the store.
func (s *Store) ScanFunc(topicName string, fromMs, toMs int64, fn func(logstore.Record) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	s.scanLocked(t, fromMs, toMs, fn)
}

// Len returns the number of live records in a topic.
func (s *Store) Len(topicName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0
	}
	n := t.act.live
	for _, sf := range t.segs {
		n += sf.live
	}
	return n
}

// Expire drops every record with ArrivalMs < nowMs − TTL and returns the
// number removed. Wholly expired segments are deleted in O(1) each; the
// records of a partially expired segment, or of the wal, are masked by the
// watermark, which is persisted whenever it masks something so the mask
// survives restarts.
func (s *Store) Expire(nowMs int64) int {
	cutoff := nowMs - s.opt.ttlMs
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, t := range s.topics {
		if cutoff <= t.watermark {
			continue
		}
		onDisk := false // a record below cutoff stays in a file
		mask := func(sf *segfile) {
			dead := t.countBefore(sf, cutoff)
			removed += sf.live - (sf.count - dead)
			sf.live = sf.count - dead
			onDisk = onDisk || dead > 0
		}
		keep := t.segs[:0]
		for _, sf := range t.segs {
			if sf.maxMs < cutoff {
				removed += sf.live
				os.Remove(sf.path)
				continue
			}
			mask(sf)
			keep = append(keep, sf)
		}
		t.segs = keep
		mask(&t.act)
		t.watermark = cutoff
		if onDisk {
			s.fail(s.persistWatermark(t))
		}
	}
	return removed
}

// TruncateFrom drops every record in topic with ArrivalMs >= fromMs and
// returns the number of live records removed. It is the crash-recovery
// inverse of Append: a restarting consumer (the fleet) discards the
// partially committed suffix of its topic before replaying a window. Each
// file holding such a record is cut in place at the frame of its first one
// and fsynced; segments left empty are deleted, and the wal stays the
// active file. A disk error here refuses the store's next append.
func (s *Store) TruncateFrom(topicName string, fromMs int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0
	}
	return s.truncate(t, fromMs)
}

// truncate is TruncateFrom on a topic. Callers hold s.mu.
func (s *Store) truncate(t *topic, fromMs int64) int {
	removed := 0
	keep := t.segs[:0]
	for _, sf := range t.segs {
		n, err := s.cut(t, sf, fromMs)
		removed += n
		s.fail(err)
		if sf.count == 0 {
			os.Remove(sf.path)
			continue
		}
		keep = append(keep, sf)
	}
	t.segs = keep
	n, err := s.cut(t, &t.act, fromMs)
	s.fail(err)
	syncDir(t.dir)
	return removed + n
}

// cut removes file sf's records from its first one at or after fromMs on,
// truncating the file at that record's frame, and returns how many live
// records went. A segment cut to no records is the caller's to delete.
// Callers hold s.mu.
func (s *Store) cut(t *topic, sf *segfile, fromMs int64) (int, error) {
	if sf.count == 0 || sf.maxMs < fromMs {
		return 0, nil
	}
	dead := t.countBefore(sf, t.watermark)
	it, err := t.open(sf, sf.index[0])
	if err != nil {
		return 0, err
	}
	// keep records precede the first cut one; their frames end at off.
	keep, off, prev := 0, it.off, it.prev
	for rec, ok := it.next(); ok && rec.ArrivalMs < fromMs; rec, ok = it.next() {
		keep, off, prev = it.n, it.off, it.prev
	}
	it.close()
	if it.err != nil {
		return 0, it.err
	}
	if keep == sf.count {
		return 0, nil
	}
	if sf == &t.act {
		err = t.wal.Truncate(off)
		if err == nil {
			err = t.wal.Sync()
		}
		if err == nil {
			_, err = t.wal.Seek(off, 0)
		}
		t.walBytes, t.sinceSync = off, 0
	} else if keep > 0 {
		err = truncateFile(sf.path, off)
	}
	removed := sf.live - max(0, keep-dead)
	sf.count, sf.live, sf.maxMs = keep, max(0, keep-dead), prev
	if keep == 0 {
		sf.minMs, sf.maxMs = 0, 0
	}
	sf.trimIndex()
	return removed, err
}

// Seal forces the active wal of every topic into a sealed segment; mainly
// for tests and benchmarks exercising the sealed-scan path.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.topics {
		if err := s.seal(t); err != nil {
			s.fail(err)
			return err
		}
	}
	return nil
}

// Close syncs and closes every file, and marks the store unusable. It returns the first error encountered, including
// any sticky append error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.Err()
	}
	s.closed = true
	for _, t := range s.topics {
		if t.wal != nil {
			if err := t.wal.Sync(); err != nil {
				s.fail(err)
			}
			t.wal.Close()
			t.wal = nil
		}
	}
	return s.Err()
}

// readWatermark loads a topic's persisted expiry cutoff. Absent or
// unreadable files yield math.MinInt64 — nothing is masked, arrival times
// may legitimately be negative, and the records simply wait for the next
// Expire.
func readWatermark(dir string) int64 {
	data, err := os.ReadFile(filepath.Join(dir, "watermark"))
	if err != nil {
		return math.MinInt64
	}
	payload, _, err := nextFrame(data, 0)
	if err != nil {
		return math.MinInt64
	}
	wm, n := binary.Varint(payload)
	if n <= 0 {
		return math.MinInt64
	}
	return wm
}

// persistWatermark atomically writes the topic's expiry cutoff, fsynced
// before the rename.
func (s *Store) persistWatermark(t *topic) error {
	buf := appendFrame(nil, binary.AppendVarint(nil, t.watermark))
	return writeFileAtomic(filepath.Join(t.dir, "watermark"), buf)
}

// dropExpired empties a topic that holds no live record: its files are cut
// to nothing before its watermark is removed, so no expired record is ever
// unmasked. Callers hold s.mu.
func (s *Store) dropExpired(t *topic) error {
	s.truncate(t, math.MinInt64)
	if err := s.Err(); err != nil {
		return err
	}
	t.watermark = math.MinInt64
	if err := os.Remove(filepath.Join(t.dir, "watermark")); err != nil && !os.IsNotExist(err) {
		return err
	}
	syncDir(t.dir)
	return nil
}

// syncDir best-effort fsyncs a directory after a rename or remove so the
// metadata change is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
