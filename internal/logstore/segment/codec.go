// Package segment is the durable backend of the log-store layer: a
// topic-partitioned, segment-based on-disk store for compact query-log
// records, the crash-recoverable substitute for the paper's LogStore
// (§IV-A). Records are framed with a compact varint codec and a per-record
// CRC32; an active write-ahead file per topic takes the appends, in arrival
// order, and is sealed into an immutable segment — fsynced and renamed, the
// two sharing one layout — whose sparse time index stays in memory. The
// files are the only copy of a record. TTL expiry deletes whole segments;
// crash recovery truncates the torn tail of the active file and rebuilds
// every index from the frames.
package segment

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"

	"pinsql/internal/logstore"
)

// Frame layout (everything on disk is a sequence of frames after a file
// magic):
//
//	uvarint(len(payload)) | payload | crc32-IEEE(payload) LE u32
//
// A frame whose length header, payload, or CRC cannot be read intact marks
// the torn tail of an append-only file: recovery keeps every frame before
// it and truncates the rest.

// maxFrameLen bounds a single frame payload; anything larger is treated as
// corruption rather than an allocation request.
const maxFrameLen = 1 << 20

// errCorrupt reports a frame that is truncated, oversized, or fails its
// CRC — the decode position is not advanced past it.
var errCorrupt = errors.New("segment: corrupt or truncated frame")

// appendFrame appends one CRC-protected frame carrying payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// nextFrame parses the frame starting at data[off:]. It returns the
// payload (aliasing data) and the offset just past the frame, or
// errCorrupt if the frame is torn or fails its CRC.
func nextFrame(data []byte, off int) (payload []byte, next int, err error) {
	n, ln := binary.Uvarint(data[off:])
	if ln <= 0 || n > maxFrameLen {
		return nil, off, errCorrupt
	}
	start := off + ln
	end := start + int(n)
	if end+4 > len(data) {
		return nil, off, errCorrupt
	}
	payload = data[start:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, off, errCorrupt
	}
	return payload, end + 4, nil
}

// Record payload layout, delta-encoded against the previous record in the
// same file (prev = 0 before the first record):
//
//	varint(ArrivalMs − prev) | uvarint(TemplateIdx) |
//	uvarint(reverse-bytes(float64-bits(ResponseMs))) | varint(ExaminedRows)
//
// Arrival deltas between neighbouring records are small, so the varint is
// short; reversing the float's bytes moves the always-set exponent bits to
// the low end so round response times also encode in a few bytes.

// appendRecord appends the payload encoding of rec to dst.
func appendRecord(dst []byte, prev int64, rec logstore.Record) []byte {
	dst = binary.AppendVarint(dst, rec.ArrivalMs-prev)
	dst = binary.AppendUvarint(dst, uint64(uint32(rec.TemplateIdx)))
	dst = binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(rec.ResponseMs)))
	return binary.AppendVarint(dst, rec.ExaminedRows)
}

// decodeRecord decodes one record payload produced by appendRecord.
func decodeRecord(payload []byte, prev int64) (logstore.Record, error) {
	var rec logstore.Record
	delta, n := binary.Varint(payload)
	if n <= 0 {
		return rec, errCorrupt
	}
	payload = payload[n:]
	tpl, n := binary.Uvarint(payload)
	if n <= 0 || tpl > math.MaxUint32 {
		return rec, errCorrupt
	}
	payload = payload[n:]
	fbits, n := binary.Uvarint(payload)
	if n <= 0 {
		return rec, errCorrupt
	}
	payload = payload[n:]
	rows, n := binary.Varint(payload)
	if n <= 0 || n != len(payload) {
		return rec, errCorrupt
	}
	rec.ArrivalMs = prev + delta
	rec.TemplateIdx = int32(uint32(tpl))
	rec.ResponseMs = math.Float64frombits(bits.ReverseBytes64(fbits))
	rec.ExaminedRows = rows
	return rec, nil
}
