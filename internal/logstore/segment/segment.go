package segment

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"pinsql/internal/logstore"
)

// Record file layout, format version 2 — one grammar for the active wal and
// for a sealed segment, so that the wal becomes the segment by being renamed:
//
//	magic "PSEGSEG1"
//	frame(header): uvarint(version)
//	frame(record)…, delta-encoded (prev starts at 0)
//
// A wal's records, like a sealed segment's, are in arrival order, and a
// topic's files in seq order continue each other. Files of any other
// version — version 1 wals are "PSEGWAL1" followed directly by record
// frames — are refused, untouched.
//
// A segment is a wal fsynced and renamed, and a truncation cuts a file at a
// frame boundary, so every file is a prefix of what was appended to it; the
// CRC on every frame still guards against on-disk bit rot, and recovery
// keeps the clean prefix of a damaged segment.
const (
	segMagic   = "PSEGSEG1"
	walMagicV1 = "PSEGWAL1"

	formatVersion = 2
)

// errUnsupportedVersion marks a well-formed record file of another format
// version: Open fails on it, where it skips a file that is merely damaged.
var errUnsupportedVersion = errors.New("unsupported version")

// errNoHeader marks a record file without an intact header: a damaged
// segment is skipped, a wal torn inside its header is created anew.
var errNoHeader = errors.New("no intact file header")

// fileHeader opens every record file this version writes.
var fileHeader = appendFrame([]byte(segMagic), binary.AppendUvarint(nil, formatVersion))

// headerPeek bounds the bytes read to find a file's header frame, long
// enough for version 1's segment header (version, count, min, max).
const headerPeek = 64

// recordFrameMax bounds one record frame: a length byte, the payload's four
// varints and the CRC.
const recordFrameMax = 1 + 3*binary.MaxVarintLen64 + binary.MaxVarintLen32 + 4

// indexEntry is one sparse time-index point of a record file: every
// indexEvery-th record's file offset plus the state needed to resume delta
// decoding there.
type indexEntry struct {
	firstMs int64 // ArrivalMs of the record at off
	prevMs  int64 // delta base for decoding at off
	off     int64 // file offset of that record's frame
	recIdx  int   // ordinal of that record within the file
}

// segfile describes one record file of a topic — a sealed segment or the
// active wal — by what its frames hold; the records themselves are only in
// the file. The sparse index is kept while appending and rebuilt from the
// frames at Open. Records below the topic's watermark are a prefix of every
// file, so live counts the file's suffix.
type segfile struct {
	path  string
	seq   uint64
	count int   // records in the file
	live  int   // records at/after the topic's TTL watermark
	minMs int64 // the first record's arrival
	maxMs int64 // the last record's arrival: the next frame's delta base
	index []indexEntry
}

func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }
func walName(seq uint64) string { return fmt.Sprintf("%08d.wal", seq) }

// writeFileAtomic puts data at path by way of path.tmp: written, fsynced,
// closed, renamed — a reader finds the old file or the new one, never a mix.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// truncateFile cuts the file at path to size bytes and fsyncs it.
func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readFile reads the record file at path through one buffered reader — its
// header, then every intact frame, handing each record to fn when fn is set —
// and returns the file's metadata and where its intact frames end. Frames
// past the first one that is torn, fails its CRC or does not decode are left
// where they are.
func readFile(path string, indexEvery int, fn func(logstore.Record)) (*segfile, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	it := newIter(f, indexEntry{}, math.MaxInt)
	if err := it.header(path); err != nil {
		return nil, 0, err
	}
	sf := &segfile{path: path}
	for {
		e := indexEntry{prevMs: it.prev, off: it.off, recIdx: it.n}
		rec, ok := it.next()
		if !ok {
			break
		}
		if e.recIdx%indexEvery == 0 {
			e.firstMs = rec.ArrivalMs
			sf.index = append(sf.index, e)
		}
		if fn != nil {
			fn(rec)
		}
	}
	sf.count, sf.maxMs = it.n, it.prev
	if sf.count > 0 {
		sf.minMs = sf.index[0].firstMs
	}
	return sf, it.off, it.err
}

// openSegment reads a sealed segment, verifying every frame's CRC and
// rebuilding the sparse index. A clean prefix of a damaged segment is kept
// (count and maxMs shrink to what decoded intact); a segment without an
// intact header or record is reported as an error.
func openSegment(path string, seq uint64, indexEvery int) (*segfile, error) {
	sf, _, err := readFile(path, indexEvery, nil)
	if err != nil {
		return nil, err
	}
	if sf.count == 0 {
		return nil, fmt.Errorf("segment: %s: no intact records", path)
	}
	sf.seq, sf.live = seq, sf.count
	return sf, nil
}

// startEntry returns the sparse-index entry to begin decoding from so that
// no record with ArrivalMs ≥ fromMs is missed: the last entry strictly
// before fromMs (ties may extend backwards across an index point).
func (sf *segfile) startEntry(fromMs int64) indexEntry {
	i := sort.Search(len(sf.index), func(i int) bool { return sf.index[i].firstMs >= fromMs })
	if i == 0 {
		return sf.index[0]
	}
	return sf.index[i-1]
}

// trimIndex drops the index entries of records the file no longer holds.
func (sf *segfile) trimIndex() {
	i := sort.Search(len(sf.index), func(i int) bool { return sf.index[i].recIdx >= sf.count })
	sf.index = sf.index[:i]
}

// iter streams a record file's records in order from one index point,
// through one buffered reader, checking every frame's CRC; it stops at the
// file's last known record or at the first frame that is torn, fails its
// CRC or does not decode.
type iter struct {
	br     *bufio.Reader
	closer io.Closer // the descriptor opened for this iterator, if any
	off    int64     // file offset of the next frame
	prev   int64     // delta base of the next frame
	n      int       // ordinal of the next record
	left   int       // records the file holds from n on
	err    error     // the read error that ended the iteration, if any
}

func newIter(r io.ReaderAt, e indexEntry, count int) *iter {
	return &iter{
		br:   bufio.NewReaderSize(io.NewSectionReader(r, e.off, 1<<62), 32*1024),
		off:  e.off,
		prev: e.prevMs,
		n:    e.recIdx,
		left: count - e.recIdx,
	}
}

// header reads a file header at the iterator's start, leaving it at the
// first record frame.
func (it *iter) header(path string) error {
	head, err := it.br.Peek(headerPeek)
	if err != nil && err != io.EOF {
		return err
	}
	if bytes.HasPrefix(head, []byte(walMagicV1)) {
		return fmt.Errorf("segment: %s: %w 1", path, errUnsupportedVersion)
	}
	if !bytes.HasPrefix(head, []byte(segMagic)) {
		return fmt.Errorf("segment: %s: bad magic: %w", path, errNoHeader)
	}
	hdr, off, err := nextFrame(head, len(segMagic))
	if err != nil {
		return fmt.Errorf("segment: %s: %w", path, errNoHeader)
	}
	if version, n := binary.Uvarint(hdr); n <= 0 || version != formatVersion {
		return fmt.Errorf("segment: %s: %w %d", path, errUnsupportedVersion, version)
	}
	it.br.Discard(off)
	it.off += int64(off)
	return nil
}

// next decodes the next record; ok is false at the end of the file's
// records or of its intact frames.
func (it *iter) next() (logstore.Record, bool) {
	if it.left <= 0 {
		return logstore.Record{}, false
	}
	data, err := it.br.Peek(recordFrameMax)
	if err != nil && err != io.EOF {
		it.err, it.left = err, 0
		return logstore.Record{}, false
	}
	payload, size, err := nextFrame(data, 0)
	if err != nil {
		it.left = 0
		return logstore.Record{}, false
	}
	rec, err := decodeRecord(payload, it.prev)
	if err != nil {
		it.left = 0
		return logstore.Record{}, false
	}
	it.br.Discard(size)
	it.off += int64(size)
	it.prev = rec.ArrivalMs
	it.n++
	it.left--
	return rec, true
}

func (it *iter) close() {
	if it.closer != nil {
		it.closer.Close()
	}
}
