package segment

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"pinsql/internal/logstore"
)

// FuzzRecordCodec fuzzes the record codec end to end: every input is
// interpreted as (record fields, previous arrival, a mutation offset) and
// the target checks that
//
//  1. encode → frame → parse → decode round-trips the record exactly,
//  2. re-encoding the decoded record is byte-identical (canonical form),
//  3. flipping any single byte of the frame is rejected by the CRC (or,
//     for the length header, by the bounds checks) — corruption must
//     never decode to a different record silently,
//  4. arbitrary bytes fed straight into the frame parser never panic
//     and never alias past the buffer.
func FuzzRecordCodec(f *testing.F) {
	f.Add(int64(0), int32(0), float64(0), int64(0), int64(0), uint16(0))
	f.Add(int64(1234), int32(7), 3.25, int64(42), int64(1000), uint16(3))
	f.Add(int64(-5_000), int32(math.MaxInt32), math.MaxFloat64, int64(math.MinInt64), int64(math.MaxInt64), uint16(11))
	f.Add(int64(math.MaxInt64), int32(-1), math.SmallestNonzeroFloat64, int64(-1), int64(-9), uint16(0xffff))
	f.Add(int64(17), int32(50), math.Inf(1), int64(3), int64(16), uint16(5))

	f.Fuzz(func(t *testing.T, arrival int64, tpl int32, resp float64, rows, prev int64, mutate uint16) {
		if math.IsNaN(resp) {
			// NaN payloads round-trip bit-exactly but break the == check
			// below; real records never carry NaN response times.
			resp = 0
		}
		rec := logstore.Record{TemplateIdx: tpl, ArrivalMs: arrival, ResponseMs: resp, ExaminedRows: rows}

		payload := appendRecord(nil, prev, rec)
		frame := appendFrame(nil, payload)

		// 1. Round-trip through the frame parser and record decoder.
		got, next, err := nextFrame(frame, 0)
		if err != nil {
			t.Fatalf("nextFrame rejected a well-formed frame: %v", err)
		}
		if next != len(frame) {
			t.Fatalf("nextFrame consumed %d of %d bytes", next, len(frame))
		}
		dec, err := decodeRecord(got, prev)
		if err != nil {
			t.Fatalf("decodeRecord rejected a well-formed payload: %v", err)
		}
		if dec != rec {
			t.Fatalf("round-trip mismatch: encoded %+v, decoded %+v", rec, dec)
		}

		// 2. Canonical form: re-encoding yields identical bytes.
		if again := appendRecord(nil, prev, dec); !bytes.Equal(again, payload) {
			t.Fatalf("re-encode not canonical: %x vs %x", again, payload)
		}

		// 3. Single-byte corruption anywhere in the frame must not decode
		// to a *different* record. The CRC catches payload and checksum
		// damage; a damaged length header either fails parsing or shifts
		// the CRC out of alignment.
		k := int(mutate) % len(frame)
		bad := append([]byte(nil), frame...)
		bad[k] ^= 1 + byte(mutate>>8)
		if p, _, err := nextFrame(bad, 0); err == nil {
			if d, derr := decodeRecord(p, prev); derr == nil && d != rec {
				t.Fatalf("corrupted byte %d decoded silently to %+v (want %+v or an error)", k, d, rec)
			}
		}

		// 4. The parser must tolerate arbitrary garbage without panicking.
		garbage := append([]byte(nil), frame...)
		garbage = append(garbage, byte(arrival), byte(rows), byte(mutate))
		off := 0
		for off < len(garbage) {
			p, next, err := nextFrame(garbage, off)
			if err != nil {
				break
			}
			decodeRecord(p, prev)
			if next <= off {
				t.Fatal("nextFrame did not advance")
			}
			off = next
		}
	})
}

// FuzzFrameParser hammers nextFrame with raw bytes: it must never panic,
// never return a payload extending past the input, and always advance.
func FuzzFrameParser(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(appendFrame(nil, []byte("hello")))
	f.Add(append(appendFrame(nil, []byte{1, 2, 3}), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add([]byte{0x05, 'a', 'b'}) // length past the buffer

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			payload, next, err := nextFrame(data, off)
			if err != nil {
				break
			}
			if next <= off || next > len(data) {
				t.Fatalf("nextFrame advanced %d → %d of %d", off, next, len(data))
			}
			if len(payload) > next-off {
				t.Fatalf("payload of %d bytes from a %d-byte frame", len(payload), next-off)
			}
			off = next
		}
	})
}

// FuzzSealPaths reads its input as a program of batches, forced seals,
// expiries, truncations, scans and reopens, runs it against a segment store
// that seals every few records and against the in-memory store, and holds
// the two to the same accepted counts and the same scans. Every seal renames
// the wal, which Expire masks and TruncateFrom cuts in place.
//
// A byte whose low two bits are 3 is a control, by bits 2–4: seal, close
// and reopen, Expire or TruncateFrom at the clock minus 40 ms × the next
// byte, else only a scan; every control ends with a scan. Any other byte
// opens a batch of 1 + (bits 2–5) records, one following byte each: the
// arrival is the clock plus 40 ms × that byte as an int8, and the clock
// follows it forward only, so a negative byte is a straggler behind the
// newest, refused with the rest of its batch.
func FuzzSealPaths(f *testing.F) {
	f.Add([]byte{0x3c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x03})                        // one wal in order: rolled
	f.Add([]byte{0x2c, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x0f, 2, 0x1c, 3, 3, 3, 3, 3, 3, 3, 3, 0x0b})  // wal frames expired: rolled, reopened
	f.Add([]byte{0x2c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x13, 2, 0x1c, 1, 1, 1, 1, 1, 1, 1, 1, 0x0b}) // wal cut: rolled, reopened
	f.Add([]byte{0x1c, 5, 5, 5, 0xfe, 6, 6, 0, 7, 0x1c, 0, 0, 1, 1, 0x80, 2, 2, 2, 0x07, 0x0b, 0x13, 0})    // ties, stragglers mid-batch
	f.Fuzz(func(t *testing.T, prog []byte) {
		dir := t.TempDir()
		opt := Options{segmentRecords: 8, indexEvery: 3}
		seg, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { seg.Close() }()
		mem := logstore.New(0)
		compare := func(at int) {
			got, want := seg.Scan("t", -1<<62, 1<<62), mem.Scan("t", -1<<62, 1<<62)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("byte %d: segment store scans %d records, memory store %d, or they differ\n got %v\nwant %v", at, len(got), len(want), got, want)
			}
		}
		clock := int64(1 << 20)
		for i := 0; i < len(prog); {
			op := prog[i]
			i++
			if op&3 == 3 {
				back := int64(0)
				if i < len(prog) {
					back = 40 * int64(prog[i])
				}
				switch op >> 2 & 7 {
				case 1:
					if err := seg.Seal(); err != nil {
						t.Fatal(err)
					}
				case 2:
					if err := seg.Close(); err != nil {
						t.Fatal(err)
					}
					if seg, err = Open(dir, opt); err != nil {
						t.Fatal(err)
					}
				case 3:
					i++
					now := clock - back + logstore.DefaultTTLMs
					if r1, r2 := seg.Expire(now), mem.Expire(now); r1 != r2 {
						t.Fatalf("byte %d: Expire removed %d, memory store %d", i, r1, r2)
					}
				case 4:
					i++
					if r1, r2 := seg.TruncateFrom("t", clock-back), mem.TruncateFrom("t", clock-back); r1 != r2 {
						t.Fatalf("byte %d: TruncateFrom removed %d, memory store %d", i, r1, r2)
					}
				}
				compare(i)
				continue
			}
			var recs []logstore.Record
			for n := 1 + int(op>>2&15); n > 0 && i < len(prog); n, i = n-1, i+1 {
				ms := clock + 40*int64(int8(prog[i]))
				clock = max(clock, ms)
				recs = append(recs, logstore.Record{TemplateIdx: int32(i), ArrivalMs: ms, ResponseMs: float64(prog[i]) / 8, ExaminedRows: int64(len(recs))})
			}
			n1, err1 := seg.AppendBatch("t", recs)
			n2, err2 := mem.AppendBatch("t", slices.Clone(recs))
			if n1 != n2 || err1 != err2 {
				t.Fatalf("byte %d: segment store took %d (%v), memory store %d (%v)", i, n1, err1, n2, err2)
			}
		}
		compare(len(prog))
		if err := seg.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
