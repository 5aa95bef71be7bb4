package segment

import (
	"bytes"
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
	// TTLMs is the record time-to-live in milliseconds; ≤ 0 selects
	// logstore.DefaultTTLMs.
	TTLMs int64
	// SegmentRecords seals the active file once it holds this many
	// records (default 8192).
	SegmentRecords int
	// SegmentBytes seals the active file once its encoded size reaches
	// this many bytes (default 1 MiB).
	SegmentBytes int64
	// IndexEvery is the sparse time-index granularity in records
	// (default 64).
	IndexEvery int
	// SyncEvery fsyncs a topic's active wal after every SyncEvery
	// appended records (and the registry delta after every interned
	// template), bounding how much a power failure or OS crash can lose.
	// 0 (the default) syncs only at seal and Close: every append is still
	// safe against a *process* crash — frames reach the OS page cache
	// before Append returns — but not against losing the machine.
	SyncEvery int
	// noMmap keeps sealed-segment scans on the plain file-read path — the
	// one a platform without memory-mapping takes — so the package's tests
	// can hold the two paths to identical results on one host.
	noMmap bool
}

func (o Options) withDefaults() Options {
	if o.TTLMs <= 0 {
		o.TTLMs = logstore.DefaultTTLMs
	}
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = 8192
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.IndexEvery <= 0 {
		o.IndexEvery = 64
	}
	return o
}

// topic is the mutable per-topic state: sealed segments, the active
// write-ahead file, and its in-memory mirror (the memtable).
type topic struct {
	name string
	dir  string
	segs []*segfile // ascending seq

	seq      uint64 // seq the active wal will seal into
	wal      *os.File
	walBytes int64

	mem []logstore.Record // mirror of the live wal records, in arrival order

	// inOrder holds while the wal is, byte for byte, the segment its
	// records would seal into: the version-2 header, then exactly mem's
	// frames in arrival order, every write and fsync so far successful.
	// seal then renames the file instead of rewriting it, and index — one
	// entry per IndexEvery records, kept while appending — becomes the
	// segment's.
	inOrder bool
	index   []indexEntry

	prevArrival int64 // delta base of the next wal frame
	sinceSync   int   // wal records appended since the last fsync

	watermark int64 // records with ArrivalMs < watermark are expired
	// wmStale is set while the watermark file is behind watermark: Expire
	// writes the file only when a record below the new cutoff is left on
	// disk, and append catches it up before such a record arrives late.
	wmStale bool
}

// Store is a durable, crash-recoverable logstore.Backend. Directory
// layout:
//
//	<dir>/registry.snap          template-registry snapshot
//	<dir>/registry.delta         registry entries appended since the snapshot
//	<dir>/t/<topic>/NNNNNNNN.seg immutable arrival-sorted segments
//	<dir>/t/<topic>/NNNNNNNN.wal the active write-ahead file
//	<dir>/t/<topic>/watermark    persisted TTL expiry cutoff
//
// Every append continues the topic's arrival order, so a topic's files,
// taken in seq order, are one arrival-ordered sequence. Appends go to the
// wal (one CRC frame per record, one write per batch stretch) and an
// in-memory mirror; when the wal reaches the segment size it is sealed into
// an immutable .seg file whose sparse time index lives in memory — by
// renaming it when it is, byte for byte, the segment, by writing the mirror
// into a new file otherwise. Scans read the segments in seq order, then the
// mirror. Expire deletes whole segments below the TTL cutoff in O(1) per
// segment and persists the cutoff as a watermark so partially expired
// segments stay filtered across restarts.
type Store struct {
	mu     sync.Mutex
	dir    string
	opt    Options
	topics map[string]*topic
	closed bool

	// frames and payload are append's encode buffers, reused under mu.
	frames, payload []byte

	// rolls and rewrites count the seals that renamed the wal and those
	// that wrote a new file; sealErrs the attempts that did neither.
	rolls, rewrites, sealErrs int

	// The registry has its own lock so AppendRegistry can be called from
	// a collect.Registry intern hook (which holds the registry's lock)
	// while a scan callback holding s.mu resolves template indexes — the
	// two paths never contend on the same mutex.
	regMu      sync.Mutex
	regEntries []RegistryEntry
	regDelta   *os.File
	regClosed  bool

	// The sticky error has a leaf lock of its own: fail is reachable
	// from both s.mu and regMu critical sections.
	errMu sync.Mutex
	err   error // first unrecoverable disk error
}

var _ logstore.Backend = (*Store)(nil)

// Open creates or recovers a durable store rooted at dir. Recovery
// verifies every frame CRC, truncates the torn tail of each topic's
// active wal, removes wal files already sealed into a segment, deletes
// segments wholly below the persisted watermark, and rebuilds the sparse
// indexes and the template registry (snapshot plus delta replay). A topic
// Open cannot continue — a file of format version 1, or files out of
// arrival order — fails it with an error naming the file, and that topic's
// directory is left as it was.
func Open(dir string, opt Options) (*Store, error) {
	s := &Store{
		dir:    dir,
		opt:    opt.withDefaults(),
		topics: make(map[string]*topic),
	}
	if err := os.MkdirAll(filepath.Join(dir, "t"), 0o755); err != nil {
		return nil, err
	}
	if err := s.openRegistry(); err != nil {
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

// errOutOfOrder marks a topic whose live records — those at or after its
// watermark — do not continue each other's arrival order: a wal frame
// behind its predecessor, or a file that starts before the previous one
// ends. Expired records are left out: an emptied topic accepts any arrival.
var errOutOfOrder = errors.New("records out of arrival order")

// recoverTopic rebuilds one topic from its directory. Whatever it refuses
// is found before it changes a file, so a refused directory is left as it
// was.
func (s *Store) recoverTopic(name, dir string) (_ *topic, err error) {
	t := &topic{name: name, dir: dir, watermark: readWatermark(dir)}
	defer func() {
		if err != nil {
			for _, sf := range t.segs {
				sf.close()
			}
		}
	}()

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
			sf, oerr := openSegment(filepath.Join(dir, base), seq, s.opt.IndexEvery, s.opt.noMmap)
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
			tmps = append(tmps, base) // interrupted seal or snapshot
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

	// A wal whose segment exists was sealed but not yet removed (crash
	// between rename and delete): the segment's copy wins.
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
	t.seq = active
	wal, err := s.readWal(filepath.Join(dir, walName(t.seq)), t.watermark, floor)
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
			sf.close()
			os.Remove(sf.path) // wholly expired while we were down
			continue
		}
		sf.live = sf.count - sf.countBefore(t.watermark)
		keep = append(keep, sf)
	}
	t.segs = keep
	if err := s.replayWal(t, wal); err != nil {
		return nil, err
	}
	return t, nil
}

// walImage is an active wal as recovery read it: the file's bytes, the live
// records of its intact frames, and where those frames end.
type walImage struct {
	path   string
	data   []byte
	recs   []logstore.Record // the frames at or after the watermark
	frames int               // intact frames, expired ones included
	good   int               // offset just past the last intact frame
	prev   int64             // that frame's arrival
	index  []indexEntry      // one entry per IndexEvery frames
	header bool              // data opens with this version's file header
}

// readWal reads and decodes the wal at path without changing it. A version-1
// wal is refused, since creating it anew would truncate it, and so is one
// whose live frames — at or after watermark — fall behind each other or
// behind floor, the end of the topic's last live segment.
func (s *Store) readWal(path string, watermark, floor int64) (walImage, error) {
	w := walImage{path: path}
	var err error
	if w.data, err = os.ReadFile(path); err != nil && !os.IsNotExist(err) {
		return w, err
	}
	if bytes.HasPrefix(w.data, []byte(walMagicV1)) {
		return w, fmt.Errorf("segment: %s: %w 1", path, errUnsupportedVersion)
	}
	if w.header = bytes.HasPrefix(w.data, fileHeader); !w.header {
		return w, nil
	}
	ordered := true
	w.good, w.prev, w.index = readFrames(w.data, len(fileHeader), s.opt.IndexEvery, func(rec logstore.Record) {
		w.frames++
		if rec.ArrivalMs >= watermark {
			ordered = ordered && rec.ArrivalMs >= floor
			floor = rec.ArrivalMs
			w.recs = append(w.recs, rec)
		}
	})
	if !ordered {
		return w, fmt.Errorf("segment: %s: %w", path, errOutOfOrder)
	}
	return w, nil
}

// replayWal loads the active wal's intact frames into the memtable,
// truncating the torn tail, and leaves the file positioned for appends. A
// wal that is missing (fresh topic, or a crash right after sealing) or torn
// inside its header is created anew.
func (s *Store) replayWal(t *topic, w walImage) error {
	if !w.header {
		return s.createWal(t)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if w.good < len(w.data) {
		err = f.Truncate(int64(w.good))
	}
	if err == nil {
		_, err = f.Seek(int64(w.good), 0)
	}
	if err != nil {
		f.Close()
		return err
	}
	t.wal = f
	t.mem = w.recs
	t.walBytes = int64(w.good)
	t.prevArrival = w.prev
	t.sinceSync = 0
	t.index = w.index
	t.inOrder = w.frames == len(w.recs)
	return nil
}

// createWal starts the topic's active wal at t.seq: one create-or-truncate
// open, one header write. The previous wal's descriptor is the caller's to
// have closed or handed to its segment.
func (s *Store) createWal(t *topic) error {
	t.wal, t.walBytes, t.prevArrival, t.sinceSync, t.inOrder = nil, 0, 0, 0, false
	f, err := os.OpenFile(filepath.Join(t.dir, walName(t.seq)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(fileHeader); err != nil {
		f.Close()
		return err
	}
	t.wal = f
	t.walBytes = int64(len(fileHeader))
	t.index = t.index[:0]
	t.inOrder = true
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
	t := &topic{name: name, dir: dir, seq: 1, watermark: math.MinInt64}
	if err := s.createWal(t); err != nil {
		return nil, err
	}
	s.topics[name] = t
	return t, nil
}

// fail records the first unrecoverable disk error; later operations keep
// serving from memory but the store is no longer durable past this point.
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

// Err returns the first unrecoverable disk error hit by an append or
// seal, if any. Appends keep accepting records into the memtable past such
// an error (an Append error strictly means the record was refused for its
// order), so callers should check Err before trusting durability.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// TTL returns the configured time-to-live in milliseconds.
func (s *Store) TTL() int64 { return s.opt.TTLMs }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Append stores one record under the topic: AppendBatch of one.
func (s *Store) Append(topicName string, rec logstore.Record) error {
	_, err := s.AppendBatch(topicName, []logstore.Record{rec})
	return err
}

// AppendBatch stores recs under the topic in order, by the in-memory
// store's rule: a record behind the topic's newest live record ends the
// batch. It returns how many records were accepted; a nil error means all
// of them. Though the contract gives recs up, this store keeps none of it.
// Disk errors degrade durability without failing the append and are
// reported via Err.
func (s *Store) AppendBatch(topicName string, recs []logstore.Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, os.ErrClosed
	}
	t, err := s.getTopic(topicName, true)
	if err != nil {
		s.fail(err)
		return 0, err
	}
	if n := s.append(t, recs); n < len(recs) {
		return n, logstore.ErrUnsortedAppend
	}
	return len(recs), nil
}

// frameBufBytes bounds the frames one wal.Write carries, and with it the
// encode buffer a store keeps between appends.
const frameBufBytes = 64 << 10

// append writes one frame per record to the wal and mirrors the records in
// the memtable, sealing when the active file reaches the segment size. It
// stops at the first record behind the topic's newest and returns how many
// records it took. Frames are encoded into one buffer and written once per
// stretch between seal, SyncEvery and frameBufBytes bounds, so the bytes on
// disk, the seal points and the fsync points are those of a
// record-at-a-time writer, and every accepted frame has been handed to the
// OS before append returns. A seal that fails is not tried again before the
// next call: the records behind it stay in the wal and the memtable, and
// are written in stretches like any others. Callers hold s.mu.
func (s *Store) append(t *topic, recs []logstore.Record) int {
	newest, has := t.newest()
	buf, pending := s.frames[:0], 0
	// flush writes the encoded stretch; sinceSync counts only records whose
	// frames reached the wal.
	flush := func(sync bool) {
		if t.wal != nil && pending > 0 {
			if _, err := t.wal.Write(buf); err != nil {
				s.fail(err)
				t.inOrder = false
			} else if t.sinceSync += pending; sync {
				if err := t.wal.Sync(); err != nil {
					s.fail(err)
					t.inOrder = false
				}
				t.sinceSync = 0
			}
		}
		buf, pending = buf[:0], 0
		s.frames = buf
	}
	sealFailed := false
	for i, rec := range recs {
		if has && rec.ArrivalMs < newest {
			flush(false)
			return i
		}
		newest, has = rec.ArrivalMs, true
		if t.wmStale && rec.ArrivalMs < t.watermark {
			s.persistWatermark(t) // an expired arrival must stay masked after a restart
		}
		if t.inOrder && len(t.mem)%s.opt.IndexEvery == 0 {
			t.index = append(t.index, indexEntry{firstMs: rec.ArrivalMs, prevMs: t.prevArrival, off: t.walBytes, recIdx: len(t.mem)})
		}
		n := len(buf)
		s.payload = appendRecord(s.payload[:0], t.prevArrival, rec)
		buf = appendFrame(buf, s.payload)
		pending++
		t.walBytes += int64(len(buf) - n)
		t.prevArrival = rec.ArrivalMs
		t.mem = append(t.mem, rec)
		syncDue := s.opt.SyncEvery > 0 && t.sinceSync+pending >= s.opt.SyncEvery
		sealDue := !sealFailed && (len(t.mem) >= s.opt.SegmentRecords || t.walBytes >= s.opt.SegmentBytes)
		if syncDue || sealDue || i == len(recs)-1 || len(buf) >= frameBufBytes {
			flush(syncDue)
		}
		if sealDue {
			if err := s.seal(t); err != nil {
				s.fail(err)
				sealFailed = true
			}
		}
	}
	return len(recs)
}

// newest returns the arrival of the topic's newest live record; ok is
// false when the topic holds none.
func (t *topic) newest() (ms int64, ok bool) {
	if n := len(t.mem); n > 0 {
		return t.mem[n-1].ArrivalMs, true
	}
	for i := len(t.segs) - 1; i >= 0; i-- {
		if t.segs[i].live > 0 {
			return t.segs[i].maxMs, true
		}
	}
	return 0, false
}

// seal turns the active wal into an immutable segment and starts a fresh
// wal. A wal that is already the segment (t.inOrder) is fsynced and renamed;
// any other — frames Expire trimmed from the memtable, a wal TruncateFrom
// rewrote, a failed write — is replaced by the memtable written out anew,
// and removed. Callers hold s.mu.
func (s *Store) seal(t *topic) error {
	if len(t.mem) == 0 {
		return nil
	}
	oldWal := filepath.Join(t.dir, walName(t.seq))
	sf := s.roll(t, oldWal)
	rolled := sf != nil
	if !rolled {
		var err error
		if sf, err = writeSegment(t.dir, t.seq, t.mem, s.opt.IndexEvery, s.opt.noMmap, int(t.walBytes)); err != nil {
			s.sealErrs++
			return err
		}
		s.rewrites++
		if t.wal != nil {
			t.wal.Close()
		}
	}
	t.segs = append(t.segs, sf)
	t.seq++
	t.mem = t.mem[:0]
	if err := s.createWal(t); err != nil {
		return err
	}
	if !rolled {
		os.Remove(oldWal)
	}
	syncDir(t.dir)
	return nil
}

// roll seals an in-order wal in place: fsync, then rename to the segment's
// name. The descriptor stays open as the segment's reader, so nothing after
// the rename can fail, and the index kept while appending is the segment's.
// It returns nil, leaving the wal as it was, when the wal is not the
// segment or either step fails — the caller then rewrites.
func (s *Store) roll(t *topic, walPath string) *segfile {
	if !t.inOrder {
		return nil
	}
	if err := t.wal.Sync(); err != nil {
		s.fail(err)
		t.inOrder = false
		return nil
	}
	t.sinceSync = 0
	sf := &segfile{
		path:  filepath.Join(t.dir, segName(t.seq)),
		f:     t.wal,
		seq:   t.seq,
		count: len(t.mem),
		live:  len(t.mem),
		minMs: t.mem[0].ArrivalMs,
		maxMs: t.mem[len(t.mem)-1].ArrivalMs,
		index: t.index,
	}
	if err := os.Rename(walPath, sf.path); err != nil {
		return nil
	}
	s.rolls++
	t.index = make([]indexEntry, 0, len(sf.index))
	sf.mapIfEnabled(s.opt.noMmap)
	return sf
}

// scanLocked streams the records of [fromMs, toMs) in arrival order with
// ingest-order ties: the sealed segments in seq order, then the memtable.
// Callers hold s.mu.
func (s *Store) scanLocked(t *topic, fromMs, toMs int64, fn func(logstore.Record) bool) {
	if t == nil {
		return
	}
	fromMs = max(fromMs, t.watermark)
	if fromMs >= toMs {
		return
	}
	for _, sf := range t.segs {
		if sf.live == 0 || sf.maxMs < fromMs {
			continue
		}
		// The iterator starts at the sparse-index point before the range.
		it := sf.iterFrom(fromMs)
		for {
			rec, ok := it.next()
			if !ok {
				break
			}
			if rec.ArrivalMs >= fromMs && (rec.ArrivalMs >= toMs || !fn(rec)) {
				return
			}
		}
	}
	lo := sort.Search(len(t.mem), func(i int) bool { return t.mem[i].ArrivalMs >= fromMs })
	for _, rec := range t.mem[lo:] {
		if rec.ArrivalMs >= toMs || !fn(rec) {
			return
		}
	}
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

// Scan returns a copy of the records in [fromMs, toMs), sorted by arrival
// with ingest-order ties — byte-identical to the in-memory store's result
// for the same ingest sequence.
func (s *Store) Scan(topicName string, fromMs, toMs int64) []logstore.Record {
	var out []logstore.Record
	s.ScanFunc(topicName, fromMs, toMs, func(rec logstore.Record) bool {
		out = append(out, rec)
		return true
	})
	if out == nil {
		out = []logstore.Record{}
	}
	return out
}

// Len returns the number of live records in a topic.
func (s *Store) Len(topicName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0
	}
	n := len(t.mem)
	for _, sf := range t.segs {
		n += sf.live
	}
	return n
}

// Topics returns the sorted names of topics with at least one live record.
func (s *Store) Topics() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.topics))
	for name, t := range s.topics {
		n := len(t.mem)
		for _, sf := range t.segs {
			n += sf.live
		}
		if n > 0 {
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

// Expire drops every record with ArrivalMs < nowMs − TTL and returns the
// number removed. Wholly expired segments are deleted in O(1) each;
// partially expired segments, and wal frames trimmed from the memtable,
// are masked by the watermark, which is persisted whenever it masks
// something so the mask survives restarts.
func (s *Store) Expire(nowMs int64) int {
	cutoff := nowMs - s.opt.TTLMs
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, t := range s.topics {
		if cutoff > t.watermark {
			onDisk := false // a record below cutoff stays in a file
			keep := t.segs[:0]
			for _, sf := range t.segs {
				switch {
				case sf.maxMs < cutoff:
					removed += sf.live
					sf.close()
					os.Remove(sf.path)
				case sf.minMs < cutoff:
					wasDead := sf.countBefore(t.watermark)
					nowDead := sf.countBefore(cutoff)
					removed += nowDead - wasDead
					sf.live = sf.count - nowDead
					keep = append(keep, sf)
					onDisk = true
				default:
					keep = append(keep, sf)
				}
			}
			t.segs = keep
			lo := sort.Search(len(t.mem), func(i int) bool { return t.mem[i].ArrivalMs >= cutoff })
			if lo > 0 {
				removed += lo
				t.mem = t.mem[lo:] // their frames stay in the wal
				t.inOrder = false
				onDisk = true
			}
			t.watermark, t.wmStale = cutoff, true
			if onDisk {
				s.persistWatermark(t)
			}
		}
	}
	return removed
}

// TruncateFrom drops every record in topic with ArrivalMs >= fromMs and
// returns the number of live records removed. It is the crash-recovery
// inverse of Append: a restarting consumer (the fleet) discards the
// partially committed suffix of its topic before replaying a window.
// The memtable is cut and the active wal rewritten so the truncation
// survives a further crash; segments wholly at/after the boundary are
// deleted; a segment straddling it is rewritten in place (atomically,
// tmp + rename).
func (s *Store) TruncateFrom(topicName string, fromMs int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0
	}
	removed := 0
	lo := sort.Search(len(t.mem), func(i int) bool { return t.mem[i].ArrivalMs >= fromMs })
	if cut := len(t.mem) - lo; cut > 0 {
		// The memtable holds no watermark-dead records (replay filters
		// them, Expire trims them), so every cut record was live.
		removed += cut
		t.mem = t.mem[:lo:lo]
		if err := s.rewriteWal(t); err != nil {
			s.fail(err)
		}
	}
	var orphans []logstore.Record // live survivors of a failed segment rewrite
	keep := t.segs[:0]
	for _, sf := range t.segs {
		switch {
		case sf.minMs >= fromMs: // wholly cut
			removed += sf.live
			sf.close()
			os.Remove(sf.path)
		case sf.maxMs >= fromMs: // straddles the boundary: rewrite survivors
			var survivors []logstore.Record
			it := sf.iterFrom(math.MinInt64)
			for {
				rec, ok := it.next()
				if !ok || rec.ArrivalMs >= fromMs {
					break
				}
				survivors = append(survivors, rec)
			}
			// Records below the watermark are already dead; both the
			// survivor prefix and the dead prefix are prefixes of the
			// sorted segment, so the kept live count is their difference.
			deadKept := min(sf.countBefore(t.watermark), len(survivors))
			removed += sf.live - (len(survivors) - deadKept)
			if len(survivors) == 0 {
				sf.close()
				os.Remove(sf.path)
				continue
			}
			nsf, err := writeSegment(t.dir, sf.seq, survivors, s.opt.IndexEvery, s.opt.noMmap, 0)
			if err != nil {
				// Disk trouble: stay correct in memory by folding the
				// survivors into the active wal, which the cut left empty
				// (its records all followed this segment's); durability is
				// degraded and flagged via Err.
				s.fail(err)
				sf.close()
				os.Remove(sf.path)
				orphans = append(orphans, survivors[deadKept:]...)
				continue
			}
			sf.close()
			nsf.live = nsf.count - deadKept
			keep = append(keep, nsf)
		default:
			keep = append(keep, sf)
		}
	}
	t.segs = keep
	s.append(t, orphans)
	syncDir(t.dir)
	return removed
}

// rewriteWal replaces the topic's active wal with frames for exactly the
// current memtable. Written to a temporary file and renamed into place so
// a crash mid-rewrite leaves either the old or the new wal, never a mix.
// Callers hold s.mu.
func (s *Store) rewriteWal(t *topic) error {
	buf := append(make([]byte, 0, t.walBytes), fileHeader...)
	prev := int64(0)
	var payload []byte
	for _, rec := range t.mem {
		payload = appendRecord(payload[:0], prev, rec)
		buf = appendFrame(buf, payload)
		prev = rec.ArrivalMs
	}
	path := filepath.Join(t.dir, walName(t.seq))
	if err := writeFileAtomic(path, buf); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(int64(len(buf)), 0); err != nil {
		f.Close()
		return err
	}
	if t.wal != nil {
		t.wal.Close()
	}
	t.wal = f
	t.walBytes = int64(len(buf))
	t.prevArrival = prev
	t.sinceSync = 0
	t.inOrder = false // its index was not kept; the next seal rewrites
	return nil
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

// Close snapshots the registry, syncs and closes every file, and marks
// the store unusable. It returns the first error encountered, including
// any sticky append error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.Err()
	}
	s.closed = true
	s.regMu.Lock()
	s.regClosed = true
	if err := s.snapshotRegistryLocked(); err != nil {
		s.fail(err)
	}
	if s.regDelta != nil {
		s.regDelta.Close()
		s.regDelta = nil
	}
	s.regMu.Unlock()
	for _, t := range s.topics {
		if t.wal != nil {
			if err := t.wal.Sync(); err != nil {
				s.fail(err)
			}
			t.wal.Close()
			t.wal = nil
		}
		for _, sf := range t.segs {
			sf.close()
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
func (s *Store) persistWatermark(t *topic) {
	buf := appendFrame(nil, binary.AppendVarint(nil, t.watermark))
	if err := writeFileAtomic(filepath.Join(t.dir, "watermark"), buf); err != nil {
		s.fail(err)
		return
	}
	t.wmStale = false
}

// syncDir best-effort fsyncs a directory after a rename or remove so the
// metadata change is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
