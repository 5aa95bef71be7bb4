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

// Sealed segment file layout:
//
//	magic "PSEGSEG1"
//	frame(header): uvarint(version) | uvarint(count) | varint(minMs) | varint(maxMs)
//	count × frame(record), arrival-sorted, delta-encoded (prev starts at 0)
//
// Sealed segments are written in one shot to a temporary file and renamed
// into place, so a segment either exists completely or not at all; the CRC
// on every frame still guards against on-disk bit rot, and recovery keeps
// the clean prefix of a damaged segment.
const (
	segMagic = "PSEGSEG1"
	walMagic = "PSEGWAL1"
	regMagic = "PSEGREG1"

	formatVersion = 1
)

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
// in-memory metadata. The sparse index is rebuilt from the frames at Open.
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
func writeSegment(dir string, seq uint64, recs []logstore.Record, indexEvery int, noMmap bool) (*segfile, error) {
	sf := &segfile{
		path:  filepath.Join(dir, segName(seq)),
		seq:   seq,
		count: len(recs),
		live:  len(recs),
		minMs: recs[0].ArrivalMs,
		maxMs: recs[len(recs)-1].ArrivalMs,
	}
	var buf []byte
	buf = append(buf, segMagic...)
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, formatVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(recs)))
	hdr = binary.AppendVarint(hdr, sf.minMs)
	hdr = binary.AppendVarint(hdr, sf.maxMs)
	buf = appendFrame(buf, hdr)

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

	tmp := sf.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, sf.path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if sf.f, err = os.Open(sf.path); err != nil {
		return nil, err
	}
	sf.mapIfEnabled(noMmap)
	return sf, nil
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
	version, n := binary.Uvarint(hdr)
	if n <= 0 || version != formatVersion {
		sf.close()
		return nil, fmt.Errorf("segment: %s: unsupported version %d", path, version)
	}

	prev := int64(0)
	for off < len(data) {
		payload, next, ferr := nextFrame(data, off)
		if ferr != nil {
			break // bit rot past this point; keep the clean prefix
		}
		rec, derr := decodeRecord(payload, prev)
		if derr != nil {
			break
		}
		if sf.count%indexEvery == 0 {
			sf.index = append(sf.index, indexEntry{
				firstMs: rec.ArrivalMs,
				prevMs:  prev,
				off:     int64(off),
				recIdx:  sf.count,
			})
		}
		if sf.count == 0 {
			sf.minMs = rec.ArrivalMs
		}
		sf.maxMs = rec.ArrivalMs
		sf.count++
		prev = rec.ArrivalMs
		off = next
	}
	if sf.count == 0 {
		sf.close()
		return nil, fmt.Errorf("segment: %s: no intact records", path)
	}
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
