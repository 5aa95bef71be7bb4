package collect

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore"
)

// TestArrangedRunsAreHandedOver: TakeArranged is a transfer. A long-term
// store that adopted the runs as chunks of its arena writes into them — a
// within-slack insertion shifts an adopted chunk in place, an append after a
// TruncateFrom inside one overwrites its tail, an Expire trims one — and
// none of it shows in a frame held from before, in a frame sealed
// afterwards, or in the runs a second call derives, whether the runs taken
// were the arrays a seal had scattered from or not.
func TestArrangedRunsAreHandedOver(t *testing.T) {
	const windowMs = 120_000
	for _, sealFirst := range []bool{true, false} {
		rng := rand.New(rand.NewSource(21))
		c := NewCollector("owner", 0, windowMs, nil, nil)
		batch := make([]dbsim.LogRecord, 3*logChunk+500)
		for i := range batch {
			batch[i] = randomRecord(rng, windowMs)
		}
		c.IngestBatch(batch)
		reference := c.RebuildFrame()
		held := reference
		if sealFirst {
			held = c.Frame()
		}

		runs := c.TakeArranged()
		want := slices.Concat(runs...)
		long := logstore.New(1)
		for _, run := range runs {
			if n, err := long.AppendBatch("owner", run); n != len(run) || err != nil {
				t.Fatalf("AppendBatch = %d, %v", n, err)
			}
		}
		if got := long.Scan("owner", 0, windowMs); !slices.Equal(got, want) {
			t.Fatal("the adopting store scans back something else than it was handed")
		}
		newest, mid := want[len(want)-1].ArrivalMs, want[len(want)/2].ArrivalMs
		if err := long.Append("owner", logstore.Record{TemplateIdx: -1, ArrivalMs: newest - 3000}); err != nil {
			t.Fatal(err)
		}
		long.TruncateFrom("owner", mid)
		for i := 0; i < 100; i++ { // into the truncated chunk's free space
			long.AppendLoose("owner", logstore.Record{TemplateIdx: -2, ArrivalMs: mid + int64(i)})
		}
		long.Expire(want[len(want)/4].ArrivalMs)
		if slices.Equal(slices.Concat(runs...), want) {
			t.Fatal("fixture lost its teeth: the store never wrote into the runs it was handed")
		}

		if err := framesEqual(held, reference); err != nil {
			t.Fatalf("sealFirst=%v: held frame changed: %v", sealFirst, err)
		}
		if err := framesEqual(c.Frame(), reference); err != nil {
			t.Fatalf("sealFirst=%v: frame sealed after the hand-over: %v", sealFirst, err)
		}
		if got := slices.Concat(c.TakeArranged()...); !slices.Equal(got, want) {
			t.Fatalf("sealFirst=%v: a second TakeArranged returned what the store wrote into", sealFirst)
		}
		c.Ingest(randomRecord(rng, windowMs))
		if err := framesEqual(c.Frame(), c.RebuildFrame()); err != nil {
			t.Fatalf("sealFirst=%v: frame sealed from re-derived runs: %v", sealFirst, err)
		}
	}
}

// FuzzWindowLog: any record stream, cut into any batches and sealed at any
// points, yields at every seal the frame the independent reference builds,
// and its arranged runs are the scan of a store fed the same batches —
// whether or not they were taken (and so re-derived) along the way. Each
// record is six bytes: template, arrival (two, scaled over a window that
// records may fall outside), response (two), and flags — throttled, end
// the batch here, seal, take the runs.
func FuzzWindowLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 16, 0, 9, 0x06, 1, 0, 16, 0, 7, 0x0e, 2, 0, 8, 1, 1, 0x01, 1, 0, 16, 2, 2, 0x06}) // ties across seals
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xffff_ffff_ffff_ffff))
	seed := make([]byte, 0, 6*3*logChunk)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3*logChunk; i++ { // several log chunks, shallow disorder, a seal per chunk or so
		at := uint16(i*4 + rng.Intn(64))
		flags := byte(0)
		if rng.Intn(64) == 0 {
			flags |= 0x02
		}
		if rng.Intn(logChunk) == 0 {
			flags |= 0x0c
		}
		seed = append(seed, byte(rng.Intn(9)), byte(at), byte(at>>8), byte(i), byte(i>>8), flags)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const startMs, endMs = 2_000, 62_000
		store := logstore.New(0)
		c := NewCollector("fuzz", startMs, endMs, nil, store)
		templates := [...]string{"FZ0", "FZ1", "FZ2", "FZ3", "FZ4", "FZ5", "FZ6", "FZ7", "FZ8", "FZ9", "FZa", "FZb", "FZc", "FZd", "FZe", "FZf"}
		var batch []dbsim.LogRecord
		check := func(seal, take bool) {
			c.IngestBatch(batch)
			batch = batch[:0]
			if seal {
				if err := framesEqual(c.Frame(), c.RebuildFrame()); err != nil {
					t.Fatalf("sealed frame diverges from the reference: %v", err)
				}
			}
			if take {
				if got, want := slices.Concat(c.TakeArranged()...), store.Scan("fuzz", startMs, endMs); !slices.Equal(got, want) {
					t.Fatalf("arranged runs hold %d records, the store's scan %d, or differ", len(got), len(want))
				}
			}
		}
		for ; len(data) >= 6; data = data[6:] {
			r := rec(templates[data[0]%16], "", "fuzz", dbsim.KindSelect,
				int64(binary.LittleEndian.Uint16(data[1:])), float64(binary.LittleEndian.Uint16(data[3:]))/8, int64(data[3]))
			flags := data[5]
			r.Throttled = flags&0x01 != 0
			batch = append(batch, r)
			if flags&0x0e != 0 {
				check(flags&0x04 != 0, flags&0x08 != 0)
			}
		}
		check(true, true)
	})
}
