package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pinsql/internal/logstore"
)

// errMmapUnavailable marks a file that cannot be memory-mapped (empty,
// oversized for the address space, or an unsupported platform); callers
// fall back to plain reads.
var errMmapUnavailable = errors.New("segment: mmap unavailable")

// Record file layout, format version 2 — one grammar for the active wal and
// for a sealed segment, so that a wal holding its records in arrival order
// becomes the segment by being renamed:
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
// A segment is either a rolled wal or written in one shot to a temporary
// file and renamed into place, so it exists completely or not at all; the
// CRC on every frame still guards against on-disk bit rot, and recovery
// keeps the clean prefix of a damaged segment.
const (
	segMagic   = "PSEGSEG1"
	walMagicV1 = "PSEGWAL1"
	regMagic   = "PSEGREG1"

	formatVersion = 2
)

// errUnsupportedVersion marks a well-formed record file of another format
// version: Open fails on it, where it skips a file that is merely damaged.
var errUnsupportedVersion = errors.New("unsupported version")

// fileHeader opens every record file this version writes.
var fileHeader = appendFrame([]byte(segMagic), binary.AppendUvarint(nil, formatVersion))

// indexEntry is one sparse time-index point of a sealed segment: every
// indexEvery-th record's file offset plus the state needed to resume delta
// decoding there.
type indexEntry struct {
	firstMs int64 // ArrivalMs of the record at off
	prevMs  int64 // delta base for decoding at off
	off     int64 // file offset of that record's frame
	recIdx  int   // ordinal of that record within the segment
}

// segfile is an immutable, arrival-sorted segment on disk plus its
// in-memory metadata. The sparse index is the one kept while appending when
// the segment is a rolled wal, and rebuilt from the frames at Open.
// When the platform supports it the file is memory-mapped: scans decode
// straight out of the mapping with no read syscalls, no bufio staging
// buffer, and — at open — no whole-file heap copy for CRC verification.
type segfile struct {
	path  string
	f     *os.File
	data  []byte // read-only mmap of the whole file; nil in fallback mode
	seq   uint64
	count int // records physically in the file
	live  int // records at/after the topic's TTL watermark
	minMs int64
	maxMs int64
	index []indexEntry
}

// mapIfEnabled tries to memory-map sf.f; any failure leaves the segment in
// plain-read mode, which every scan path handles identically.
func (sf *segfile) mapIfEnabled(noMmap bool) {
	if noMmap || sf.f == nil {
		return
	}
	if m, err := mmapFile(sf.f); err == nil {
		sf.data = m
	}
}

func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }
func walName(seq uint64) string { return fmt.Sprintf("%08d.wal", seq) }

// writeSegment seals recs (already arrival-sorted) into an immutable
// segment file at dir/segName(seq), building the sparse index as it goes.
// The file is written to a temporary name, synced, and renamed into place.
// sizeHint, when positive, is the encoded size to expect.
func writeSegment(dir string, seq uint64, recs []logstore.Record, indexEvery int, noMmap bool, sizeHint int) (*segfile, error) {
	sf := &segfile{
		path:  filepath.Join(dir, segName(seq)),
		seq:   seq,
		count: len(recs),
		live:  len(recs),
		minMs: recs[0].ArrivalMs,
		maxMs: recs[len(recs)-1].ArrivalMs,
		index: make([]indexEntry, 0, (len(recs)+indexEvery-1)/indexEvery),
	}
	buf := append(make([]byte, 0, max(sizeHint, len(fileHeader))), fileHeader...)
	prev := int64(0)
	var payload []byte
	for i, rec := range recs {
		if i%indexEvery == 0 {
			sf.index = append(sf.index, indexEntry{
				firstMs: rec.ArrivalMs,
				prevMs:  prev,
				off:     int64(len(buf)),
				recIdx:  i,
			})
		}
		payload = appendRecord(payload[:0], prev, rec)
		buf = appendFrame(buf, payload)
		prev = rec.ArrivalMs
	}
	if err := writeFileAtomic(sf.path, buf); err != nil {
		return nil, err
	}
	var err error
	if sf.f, err = os.Open(sf.path); err != nil {
		return nil, err
	}
	sf.mapIfEnabled(noMmap)
	return sf, nil
}

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

// readFrames decodes the record frames of data from off up to the first
// one that is torn, fails its CRC or does not decode, handing each record
// to fn. It returns the offset just past the last intact frame, that
// frame's arrival (the next frame's delta base) and one sparse-index entry
// per indexEvery records.
func readFrames(data []byte, off, indexEvery int, fn func(logstore.Record)) (good int, prev int64, index []indexEntry) {
	for n := 0; off < len(data); n++ {
		payload, next, err := nextFrame(data, off)
		if err != nil {
			break
		}
		rec, err := decodeRecord(payload, prev)
		if err != nil {
			break
		}
		if n%indexEvery == 0 {
			index = append(index, indexEntry{firstMs: rec.ArrivalMs, prevMs: prev, off: int64(off), recIdx: n})
		}
		fn(rec)
		prev = rec.ArrivalMs
		off = next
	}
	return off, prev, index
}

// openSegment reads a sealed segment, verifying every frame's CRC and
// rebuilding the sparse index. A clean prefix of a damaged segment is kept
// (count and maxMs shrink to what decoded intact); a segment whose magic
// or header is unreadable is reported as an error. With mmap available the
// verification pass runs over the mapping directly — the fallback pays one
// whole-file heap copy via os.ReadFile.
func openSegment(path string, seq uint64, indexEvery int, noMmap bool) (*segfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sf := &segfile{path: path, f: f, seq: seq}
	sf.mapIfEnabled(noMmap)
	data := sf.data
	if data == nil {
		if data, err = os.ReadFile(path); err != nil {
			sf.close()
			return nil, err
		}
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		sf.close()
		return nil, fmt.Errorf("segment: %s: bad magic", path)
	}
	hdr, off, err := nextFrame(data, len(segMagic))
	if err != nil {
		sf.close()
		return nil, fmt.Errorf("segment: %s: unreadable header", path)
	}
	if version, n := binary.Uvarint(hdr); n <= 0 || version != formatVersion {
		sf.close()
		return nil, fmt.Errorf("segment: %s: %w %d", path, errUnsupportedVersion, version)
	}
	// Bit rot past the clean prefix is left where it is.
	_, sf.maxMs, sf.index = readFrames(data, off, indexEvery, func(logstore.Record) { sf.count++ })
	if sf.count == 0 {
		sf.close()
		return nil, fmt.Errorf("segment: %s: no intact records", path)
	}
	sf.minMs = sf.index[0].firstMs
	sf.live = sf.count
	return sf, nil
}

func (sf *segfile) close() {
	if sf.data != nil {
		munmapFile(sf.data)
		sf.data = nil
	}
	if sf.f != nil {
		sf.f.Close()
		sf.f = nil
	}
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

// iter streams a sealed segment's records in order from the sparse-index
// point covering fromMs. A mapped segment decodes zero-copy views straight
// out of the mmap region (data non-nil); the fallback reads through a
// bufio staging buffer over the file.
type iter struct {
	// mapped mode
	data []byte // whole-file mapping; nil selects file mode
	off  int    // decode position within data

	// file mode
	br  *bufio.Reader
	buf []byte

	prev int64
	left int // records remaining in the segment from the start entry
}

func (sf *segfile) iterFrom(fromMs int64) *iter {
	e := sf.startEntry(fromMs)
	it := &iter{prev: e.prevMs, left: sf.count - e.recIdx}
	if sf.data != nil {
		it.data = sf.data
		it.off = int(e.off)
	} else {
		it.br = bufio.NewReaderSize(io.NewSectionReader(sf.f, e.off, 1<<62), 32*1024)
	}
	return it
}

// next decodes the next record; ok is false at the end of the segment.
// Frames already verified at open are trusted, but a read or decode error
// still terminates the iterator cleanly.
func (it *iter) next() (logstore.Record, bool) {
	if it.left <= 0 {
		return logstore.Record{}, false
	}
	var payload []byte
	if it.data != nil {
		// Zero-copy: the payload view aliases the mapping; no syscalls,
		// no staging copy. The CRC was verified at open (or the frame was
		// just written by this process), so it is not re-checked here —
		// exactly the file path's contract.
		ln, n := binary.Uvarint(it.data[it.off:])
		if n <= 0 || ln == 0 || ln > maxFrameLen {
			it.left = 0
			return logstore.Record{}, false
		}
		start := it.off + n
		end := start + int(ln)
		if end+4 > len(it.data) {
			it.left = 0
			return logstore.Record{}, false
		}
		payload = it.data[start:end]
		it.off = end + 4
	} else {
		ln, err := binary.ReadUvarint(it.br)
		if err != nil || ln == 0 || ln > maxFrameLen {
			it.left = 0
			return logstore.Record{}, false
		}
		need := int(ln) + 4
		if cap(it.buf) < need {
			it.buf = make([]byte, need)
		}
		it.buf = it.buf[:need]
		if _, err := io.ReadFull(it.br, it.buf); err != nil {
			it.left = 0
			return logstore.Record{}, false
		}
		payload = it.buf[:ln]
	}
	rec, err := decodeRecord(payload, it.prev)
	if err != nil {
		it.left = 0
		return logstore.Record{}, false
	}
	it.left--
	it.prev = rec.ArrivalMs
	return rec, true
}

// countBefore returns how many of the segment's records have
// ArrivalMs < cutoff, using the sparse index to skip whole blocks.
func (sf *segfile) countBefore(cutoff int64) int {
	if cutoff <= sf.minMs {
		return 0
	}
	if cutoff > sf.maxMs {
		return sf.count
	}
	e := sf.startEntry(cutoff)
	it := sf.iterFrom(cutoff)
	n := e.recIdx
	for {
		rec, ok := it.next()
		if !ok || rec.ArrivalMs >= cutoff {
			return n
		}
		n++
	}
}
