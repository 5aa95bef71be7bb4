package segment

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"
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
	// SlackMs is the reordering tolerance of the strict Append path
	// (default 5000, matching the in-memory store).
	SlackMs int64
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
	if o.SlackMs <= 0 {
		o.SlackMs = 5000
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

	mem   []logstore.Record // mirror of the live wal records
	dirty bool              // mem needs a lazy stable sort

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

	// refLast mirrors what the in-memory store's recs[len-1].ArrivalMs
	// would be for the same call sequence — the reference point of the
	// strict Append slack check. refValid is false when the in-memory
	// topic would be empty (never appended, or deleted by Expire), a
	// state that accepts any arrival.
	refLast  int64
	refValid bool

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
//	<dir>/t/<topic>/NNNNNNNN.wal the active append-order write-ahead file
//	<dir>/t/<topic>/watermark    persisted TTL expiry cutoff
//
// Appends go to the wal (one CRC frame per record, one write per batch
// stretch) and an in-memory mirror; when the wal reaches the segment size
// it is sealed into an immutable .seg file whose sparse time index lives in
// memory — by renaming it when its records arrived in order, by
// stable-sorting the mirror into a new file otherwise. Scans merge the sorted
// segments and the mirror, reproducing exactly the in-memory store's
// lazily sorted order. Expire deletes whole segments below the TTL cutoff in O(1) per
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
// indexes and the template registry (snapshot plus delta replay).
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

// recoverTopic rebuilds one topic from its directory.
func (s *Store) recoverTopic(name, dir string) (*topic, error) {
	t := &topic{name: name, dir: dir, watermark: readWatermark(dir)}

	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segSeqs := map[uint64]bool{}
	var walSeqs []uint64
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
			if sf.maxMs < t.watermark {
				sf.close()
				os.Remove(sf.path) // wholly expired while we were down
				continue
			}
			sf.live = sf.count - sf.countBefore(t.watermark)
			t.segs = append(t.segs, sf)
			segSeqs[seq] = true
		case strings.HasSuffix(base, ".wal"):
			seq, perr := strconv.ParseUint(strings.TrimSuffix(base, ".wal"), 10, 64)
			if perr != nil {
				continue
			}
			walSeqs = append(walSeqs, seq)
		case strings.HasSuffix(base, ".tmp"):
			os.Remove(filepath.Join(dir, base)) // interrupted seal or snapshot
		}
	}
	sort.Slice(t.segs, func(i, j int) bool { return t.segs[i].seq < t.segs[j].seq })

	// A wal whose segment exists was sealed but not yet removed (crash
	// between rename and delete): the segment's copy wins.
	active := uint64(0)
	for _, seq := range walSeqs {
		if segSeqs[seq] || seq < active {
			os.Remove(filepath.Join(dir, walName(seq)))
			continue
		}
		if active != 0 {
			os.Remove(filepath.Join(dir, walName(active)))
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
	if err := s.replayWal(t); err != nil {
		return nil, err
	}
	t.syncRef() // a fresh open starts from the sorted state
	return t, nil
}

// replayWal loads the active wal's intact frames into the memtable,
// truncating the torn tail, and leaves the file positioned for appends.
// A wal that is missing (fresh topic, or a crash right after sealing) or
// torn inside its header is created anew; a version-1 wal is refused
// before anything is written, since creating it anew would truncate it.
func (s *Store) replayWal(t *topic) error {
	path := filepath.Join(t.dir, walName(t.seq))
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	switch {
	case bytes.HasPrefix(data, []byte(walMagicV1)):
		return fmt.Errorf("segment: %s: %w 1", path, errUnsupportedVersion)
	case !bytes.HasPrefix(data, fileHeader):
		return s.createWal(t)
	}
	frames := 0
	good, prev, index := readFrames(data, len(fileHeader), s.opt.IndexEvery, func(rec logstore.Record) {
		frames++
		if rec.ArrivalMs < t.watermark {
			return
		}
		if n := len(t.mem); n > 0 && rec.ArrivalMs < t.mem[n-1].ArrivalMs {
			t.dirty = true
		}
		t.mem = append(t.mem, rec)
	})
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if good < len(data) {
		err = f.Truncate(int64(good))
	}
	if err == nil {
		_, err = f.Seek(int64(good), 0)
	}
	if err != nil {
		f.Close()
		return err
	}
	t.wal = f
	t.walBytes = int64(good)
	t.prevArrival = prev
	t.sinceSync = 0
	t.index = index
	t.inOrder = !t.dirty && frames == len(t.mem)
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
// seal, if any. Append and AppendLoose keep accepting records into the
// memtable past such an error (an Append error strictly means the record
// was rejected, e.g. for ordering), so callers should check Err before
// trusting durability.
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

// AppendBatch stores recs under the topic in order, rejecting a record
// that arrives more than the slack window out of order, with the same
// observable rule as the in-memory store: the reference point is what that
// store's last slice element would be — the topic maximum while the topic
// is sorted, the most recently appended record while loose appends are
// pending. It returns how many records were accepted; a nil error means
// all of them. Though the contract gives recs up, this store keeps none of
// it. Disk errors degrade durability without failing the append and are
// reported via Err.
func (s *Store) AppendBatch(topicName string, recs []logstore.Record) (int, error) {
	return s.appendBatch(topicName, recs, false)
}

// AppendLoose stores one record with no ordering requirement:
// AppendLooseBatch of one.
func (s *Store) AppendLoose(topicName string, rec logstore.Record) {
	s.AppendLooseBatch(topicName, []logstore.Record{rec})
}

// AppendLooseBatch stores recs with no ordering requirement; ordering is
// restored lazily before the next scan (and eagerly when sealing).
func (s *Store) AppendLooseBatch(topicName string, recs []logstore.Record) {
	s.appendBatch(topicName, recs, true)
}

// frameBufBytes bounds the frames one wal.Write carries, and with it the
// encode buffer a store keeps between appends.
const frameBufBytes = 64 << 10

func (s *Store) appendBatch(topicName string, recs []logstore.Record, loose bool) (int, error) {
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
	if n := s.append(t, recs, loose); n < len(recs) {
		return n, logstore.ErrUnsortedAppend
	}
	return len(recs), nil
}

// append writes one frame per record to the wal and mirrors the records in
// the memtable, sealing when the active file reaches the segment size. It
// stops at the first strict (!loose) record outside the slack window and
// returns how many records it took. Frames are encoded into one buffer and
// written once per stretch between seal, SyncEvery and frameBufBytes bounds, so the
// bytes on disk, the seal points and the fsync points are those of a
// record-at-a-time writer, and every accepted frame has been handed to the
// OS before append returns. A seal that fails is not tried again before the
// next call: the records behind it stay in the wal and the memtable, and
// are written in stretches like any others. Callers hold s.mu.
func (s *Store) append(t *topic, recs []logstore.Record, loose bool) int {
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
		if !loose && t.refValid && rec.ArrivalMs < t.refLast && t.refLast-rec.ArrivalMs > s.opt.SlackMs {
			flush(false)
			return i
		}
		if t.wmStale && rec.ArrivalMs < t.watermark {
			s.persistWatermark(t) // an expired arrival must stay masked after a restart
		}
		if n := len(t.mem); n > 0 && rec.ArrivalMs < t.mem[n-1].ArrivalMs {
			t.dirty, t.inOrder = true, false
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
		// Mirror the in-memory store's last slice element: a loose append
		// always lands at the end; a strict append lands at the end only when
		// it is not insertion-sorted below the current last element.
		if loose || !t.refValid || rec.ArrivalMs >= t.refLast {
			t.refLast = rec.ArrivalMs
		}
		t.refValid = true
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

// ensureSorted lazily restores the memtable's stable arrival order.
func (t *topic) ensureSorted() {
	if !t.dirty {
		return
	}
	slices.SortStableFunc(t.mem, func(a, b logstore.Record) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) })
	t.dirty = false
}

// syncRef realigns the slack reference with the in-memory store's state
// after its ensureSorted ran for the topic: the last slice element
// becomes the live maximum, and a topic whose records have all expired
// behaves as empty (the in-memory Expire deletes such topics). Must be
// called exactly where the in-memory store sorts — Scan, ScanFunc,
// Bounds, and Expire — so the two backends keep accepting and rejecting
// the same strict appends.
func (t *topic) syncRef() {
	t.ensureSorted()
	t.refValid = false
	t.refLast = 0
	for _, sf := range t.segs {
		if sf.live > 0 && (!t.refValid || sf.maxMs > t.refLast) {
			t.refLast, t.refValid = sf.maxMs, true
		}
	}
	if n := len(t.mem); n > 0 {
		if last := t.mem[n-1].ArrivalMs; !t.refValid || last > t.refLast {
			t.refLast, t.refValid = last, true
		}
	}
}

// seal turns the active wal into an immutable segment and starts a fresh
// wal. A wal that is already the segment (t.inOrder) is fsynced and renamed;
// any other is replaced by the stable-sorted memtable written out anew, and
// removed. Callers hold s.mu.
func (s *Store) seal(t *topic) error {
	if len(t.mem) == 0 {
		return nil
	}
	oldWal := filepath.Join(t.dir, walName(t.seq))
	sf := s.roll(t, oldWal)
	rolled := sf != nil
	if !rolled {
		t.ensureSorted()
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
	t.dirty = false
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

// mergeRun is one sorted source feeding a scan: a sealed segment iterator
// or the memtable.
type mergeRun struct {
	cur logstore.Record
	ok  bool
	adv func() (logstore.Record, bool)
}

// scanLocked streams the records of [fromMs, toMs) in arrival order with
// ingest-order ties, merging the sorted segments (in seal order) with the
// memtable. Callers hold s.mu.
func (s *Store) scanLocked(t *topic, fromMs, toMs int64, fn func(logstore.Record) bool) {
	if t == nil {
		return
	}
	if fromMs < t.watermark {
		fromMs = t.watermark
	}
	if fromMs >= toMs {
		return
	}
	var runs []*mergeRun
	for _, sf := range t.segs {
		if sf.live == 0 || sf.maxMs < fromMs || sf.minMs >= toMs {
			continue
		}
		it := sf.iterFrom(fromMs)
		runs = append(runs, &mergeRun{adv: it.next})
	}
	t.ensureSorted()
	lo := sort.Search(len(t.mem), func(i int) bool { return t.mem[i].ArrivalMs >= fromMs })
	if lo < len(t.mem) && t.mem[lo].ArrivalMs < toMs {
		i := lo
		runs = append(runs, &mergeRun{adv: func() (logstore.Record, bool) {
			if i >= len(t.mem) {
				return logstore.Record{}, false
			}
			rec := t.mem[i]
			i++
			return rec, true
		}})
	}
	// Prime each run past records below fromMs (segment iterators start
	// at the sparse-index point before the range).
	live := 0
	for _, r := range runs {
		for {
			r.cur, r.ok = r.adv()
			if !r.ok || r.cur.ArrivalMs >= fromMs {
				break
			}
		}
		if r.ok && r.cur.ArrivalMs >= toMs {
			r.ok = false
		}
		if r.ok {
			live++
		}
	}
	// K-way merge; ties resolve to the earliest run (segments in seal
	// order before the memtable), which reproduces a global stable sort
	// by arrival over the ingest sequence.
	for live > 0 {
		var best *mergeRun
		for _, r := range runs {
			if r.ok && (best == nil || r.cur.ArrivalMs < best.cur.ArrivalMs) {
				best = r
			}
		}
		if !fn(best.cur) {
			return
		}
		best.cur, best.ok = best.adv()
		if best.ok && best.cur.ArrivalMs >= toMs {
			best.ok = false
		}
		if !best.ok {
			live--
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
	if t != nil {
		t.syncRef() // the in-memory store sorts here
	}
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

// Bounds returns the minimum and maximum live ArrivalMs of a topic.
func (s *Store) Bounds(topicName string) (minMs, maxMs int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0, 0, false
	}
	t.syncRef() // the in-memory store sorts here
	s.scanLocked(t, t.watermark, 1<<62, func(rec logstore.Record) bool {
		minMs, ok = rec.ArrivalMs, true
		return false
	})
	if !ok {
		return 0, 0, false
	}
	for _, sf := range t.segs {
		if sf.live > 0 && sf.maxMs > maxMs {
			maxMs = sf.maxMs
		}
	}
	t.ensureSorted()
	if n := len(t.mem); n > 0 && t.mem[n-1].ArrivalMs > maxMs {
		maxMs = t.mem[n-1].ArrivalMs
	}
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
			t.ensureSorted()
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
		// The in-memory store sorts every topic on Expire, even when
		// nothing is removed, so the slack reference resets regardless.
		t.syncRef()
	}
	return removed
}

// TruncateFrom drops every record in topic with ArrivalMs >= fromMs and
// returns the number of live records removed. It is the crash-recovery
// inverse of Append: a restarting consumer (the fleet) discards the
// partially committed suffix of its topic before replaying a window.
// Segments wholly at/after the boundary are deleted; a segment straddling
// it is rewritten in place (atomically, tmp + rename); the memtable is cut
// and the active wal rewritten so the truncation survives a further crash.
func (s *Store) TruncateFrom(topicName string, fromMs int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.getTopic(topicName, false)
	if t == nil {
		return 0
	}
	removed := 0
	var orphans []logstore.Record // survivors of a failed segment rewrite
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
			deadKept := sf.countBefore(t.watermark)
			if deadKept > len(survivors) {
				deadKept = len(survivors)
			}
			removed += sf.live - (len(survivors) - deadKept)
			if len(survivors) == 0 {
				sf.close()
				os.Remove(sf.path)
				continue
			}
			nsf, err := writeSegment(t.dir, sf.seq, survivors, s.opt.IndexEvery, s.opt.noMmap, 0)
			if err != nil {
				// Disk trouble: stay correct in memory by folding the
				// survivors into the active wal; durability is degraded
				// and flagged via Err.
				s.fail(err)
				sf.close()
				os.Remove(sf.path)
				orphans = append(orphans, survivors...)
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
	s.append(t, orphans, true)

	t.ensureSorted()
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
	syncDir(t.dir)
	t.syncRef()
	return removed
}

// rewriteWal replaces the topic's active wal with frames for exactly the
// current memtable (in sorted order — observably identical, since scans
// sort lazily anyway). Written to a temporary file and renamed into place
// so a crash mid-rewrite leaves either the old or the new wal, never a
// mix. Callers hold s.mu.
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
	t.dirty = false
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
