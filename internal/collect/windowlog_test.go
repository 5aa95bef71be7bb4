package collect

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore"
	"pinsql/internal/testrace"
)

// withFreshIDs returns the batch with every TemplateID in storage of its
// own, which no identity slot has seen: a collector fed these resolves each
// record through its map, as every collector did before the identity table.
func withFreshIDs(batch []dbsim.LogRecord) []dbsim.LogRecord {
	out := slices.Clone(batch)
	for i := range out {
		out[i].TemplateID = strings.Clone(out[i].TemplateID)
	}
	return out
}

// scanAll collects ScanFunc's records of [fromMs, toMs), empty but not nil
// when there are none.
func scanAll(b logstore.Backend, topic string, fromMs, toMs int64) []logstore.Record {
	out := []logstore.Record{}
	b.ScanFunc(topic, fromMs, toMs, func(r logstore.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// arrivalOrder is the order every arrangement of the collector's window
// log must give: its records, stable-sorted by arrival.
func arrivalOrder(c *Collector) []logstore.Record {
	all := slices.Concat(c.log...)
	slices.SortStableFunc(all, func(a, b logstore.Record) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) })
	return all
}

// checkCounted holds the arrangement a store takes — with the counts
// IngestBatch kept — to the stable sort of the same log.
func checkCounted(t *testing.T, c *Collector) {
	t.Helper()
	counted, _ := c.arrangeLocked()
	if got, want := counted, arrivalOrder(c); !slices.Equal(got, want) {
		t.Fatalf("counted arrangement holds %d records, the stable sort %d, or they differ", len(got), len(want))
	}
}

// TestIdentityLookup: which storage a record's TemplateID sits in changes
// nothing. One stream names its templates five ways — a string shared by
// every record of the template, a fresh copy per record, a prefix of one
// base string (same data pointer as the other prefixes, another length, and
// more lengths than the table has slots), the raw SQL alone, and a shared
// string of 600 templates, again more than slots — and every arranged array
// and the sealed frame equal those of a collector fed the same records with
// every ID in storage of its own, and the independent reference's of both;
// and the stores the two seals handed theirs to scan back alike.
func TestIdentityLookup(t *testing.T) {
	const windowMs = 60_000
	base := strings.Repeat("IDabcdefghijklmnopqrstuvwxyz", 12)
	shared := make([]string, 600)
	for i := range shared {
		shared[i] = fmt.Sprintf("SH%03d", i)
	}
	rng := rand.New(rand.NewSource(23))
	store, refStore := logstore.New(0), logstore.New(0)
	c := NewCollector("ident", 0, windowMs, nil, store)
	ref := NewCollector("ident", 0, windowMs, nil, refStore)
	for round := 0; round < 6; round++ {
		batch := make([]dbsim.LogRecord, 5000)
		for i := range batch {
			r := randomRecord(rng, windowMs)
			r.SQL = ""
			switch k := rng.Intn(24); rng.Intn(5) {
			case 0:
				r.TemplateID = shared[k]
			case 1:
				r.TemplateID = strings.Clone(shared[k])
			case 2:
				// "ID", "IDa", ...: one pointer and more lengths than slots, so
				// some slot is asked about two of them.
				r.TemplateID = base[:2+rng.Intn(300)]
			case 3:
				r.TemplateID, r.SQL = "", fmt.Sprintf("SELECT c%d FROM ident WHERE id = %d", k, i)
			case 4:
				r.TemplateID = shared[rng.Intn(len(shared))]
			}
			batch[i] = r
		}
		c.IngestBatch(batch)
		ref.IngestBatch(withFreshIDs(batch))

		checkCounted(t, c)
		if got, want := c.TakeArranged(), ref.TakeArranged(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: arranged records differ from the map-resolved collector's", round)
		}
	}
	want := ref.RebuildFrame()
	if err := framesEqual(c.Frame(), want); err != nil {
		t.Fatalf("frame differs from the map-resolved collector's reference: %v", err)
	}
	if err := framesEqual(c.Frame(), c.RebuildFrame()); err != nil {
		t.Fatalf("frame differs from the collector's own reference: %v", err)
	}
	ref.Frame()
	if got, want := scanAll(store, "ident", 0, windowMs), scanAll(refStore, "ident", 0, windowMs); !slices.Equal(got, want) {
		t.Fatal("the stores of the two collectors scan back differently")
	}
	hits := 0
	for i := range c.ident {
		if c.ident[i].ts != nil {
			hits++
		}
	}
	if hits < identSlots/2 {
		t.Fatalf("fixture lost its teeth: %d of %d identity slots in use", hits, identSlots)
	}
}

// TestCountedArrangement: the counts IngestBatch keeps arrange the log into
// the stable sort's order, for a dense window, for one past sparseSlack
// (more seconds than records, so the whole log is sorted instead of
// distributed) and for an empty one — throttled and out-of-window records,
// which are not in the log, left out of the counts too.
func TestCountedArrangement(t *testing.T) {
	for _, shape := range []struct {
		name            string
		startMs, endMs  int64
		records, passes int
	}{
		{"dense", 5_000, 65_000, 20_000, 2},
		{"sparse", 5_000, 4_005_000, 300, 1},
		{"empty", 5_000, 65_000, 0, 0},
	} {
		rng := rand.New(rand.NewSource(29))
		c := NewCollector("counted", shape.startMs, shape.endMs, nil, nil)
		batch := make([]dbsim.LogRecord, shape.records)
		for i := range batch {
			batch[i] = randomRecord(rng, shape.endMs+10_000) // some before the window, some past it
		}
		c.IngestBatch(batch)
		if n := int(c.Records()); shape.records > 0 && (n == 0 || n == shape.records) {
			t.Fatalf("%s: %d of %d records archived: nothing was left out, or everything", shape.name, n, shape.records)
		}
		checkCounted(t, c)
		if err := framesEqual(c.Frame(), c.RebuildFrame()); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		// One pass copies a sparse log, two distribute a dense one.
		if _, work := c.arrangeLocked(); work.Reads > shape.passes*int(c.Records()) {
			t.Fatalf("%s: the arrangement read %d records of %d", shape.name, work.Reads, c.Records())
		}
	}
}

// TestHandOverArrangementWorkBudget counts the records the arrangement a
// store is handed reads, in passes over the window rather than time: two —
// each record is placed in its arrival second, then each second is put in
// order. A bounds pass or a counting pass that returned to the hand-over
// would show here.
func TestHandOverArrangementWorkBudget(t *testing.T) {
	c := NewCollector("budget", 0, 300_000, nil, nil)
	for _, b := range windowBatches() {
		c.IngestBatch(b)
	}
	n := int(c.Records())
	_, work := c.arrangeLocked()
	if work.Reads > 2*n || work.Reads < n {
		t.Errorf("the hand-over's arrangement read %d records for a window of %d, budget %d (2 passes)", work.Reads, n, 2*n)
	}
}

// drainChunkPool empties the chunk pool of what earlier tests released: a
// sync.Pool forgets its contents over two collections.
func drainChunkPool() {
	runtime.GC()
	runtime.GC()
}

// TestReleaseRecyclesChunks: a released collector's chunks are the next
// collector's — a second window of the same shape allocates none — and
// nothing the released window gave out changes when they are overwritten:
// not a frame it sealed, not the records it handed over. Any later call on
// the released collector panics.
func TestReleaseRecyclesChunks(t *testing.T) {
	// One P and no collection: what is Put is what the next Get finds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainChunkPool()

	const windowMs = 120_000
	rng := rand.New(rand.NewSource(31))
	window := func() []dbsim.LogRecord {
		batch := make([]dbsim.LogRecord, 3*logChunk+500)
		for i := range batch {
			batch[i] = randomRecord(rng, windowMs)
			batch[i].Throttled = false
		}
		return batch
	}
	first := NewCollector("release", 0, windowMs, nil, nil)
	first.IngestBatch(window())
	reference := first.RebuildFrame()
	frame := first.Frame()
	arranged := first.TakeArranged()
	wantArranged := slices.Clone(arranged)
	var chunks []*logstore.Record
	for _, chunk := range first.log {
		chunks = append(chunks, &chunk[0])
	}
	first.Release()

	second := NewCollector("release", 0, windowMs, nil, nil)
	second.IngestBatch(window())
	if len(second.log) != len(chunks) {
		t.Fatalf("second window has %d chunks, the first had %d", len(second.log), len(chunks))
	}
	if !testrace.Enabled {
		for i, chunk := range second.log {
			if !slices.Contains(chunks, &chunk[0]) {
				t.Errorf("chunk %d of the second window is not one the first released", i)
			}
		}
		if err := framesEqual(second.Frame(), second.RebuildFrame()); err != nil {
			t.Fatalf("window collected into recycled chunks: %v", err)
		}
	}
	if err := framesEqual(frame, reference); err != nil {
		t.Fatalf("frame of the released window changed: %v", err)
	}
	if !slices.Equal(arranged, wantArranged) {
		t.Fatal("records the released window handed over changed")
	}

	for name, use := range map[string]func(){
		"IngestBatch":     func() { first.IngestBatch(window()[:1]) },
		"IngestMetricsAt": func() { first.IngestMetricsAt([]dbsim.SecondMetrics{{Second: 1}}) },
		"Frame":           func() { first.Frame() },
		"TakeArranged":    func() { first.TakeArranged() },
		"Records":         func() { first.Records() },
		"Release":         first.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released collector did not panic", name)
				}
			}()
			use()
		}()
	}
}

// metricRows is a full window of metric rows, every series non-zero.
func metricRows(rng *rand.Rand, seconds int) []dbsim.SecondMetrics {
	rows := make([]dbsim.SecondMetrics, seconds)
	for i := range rows {
		rows[i] = dbsim.SecondMetrics{Second: int64(i), ActiveSession: rng.Float64() * 10, AvgActiveSession: rng.Float64(),
			CPUUsage: rng.Float64(), IOPSUsage: rng.Float64(), MemUsage: rng.Float64(), QPS: 1 + rng.Intn(100),
			RowLockWaits: rng.Intn(5), MDLWaits: rng.Intn(5)}
	}
	return rows
}

// TestReleaseKeepsSealedSeries: a sealed window's series are its frame's,
// so Release recycles none of them. A full window collected after the
// release, of the same templates, writes no bit of the released window's
// frame: not a template series, a metric series nor a column.
func TestReleaseKeepsSealedSeries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const windowMs = 60_000
	rng := rand.New(rand.NewSource(37))
	collect := func() *Collector {
		c := NewCollector("sealed", 0, windowMs, nil, nil)
		for range 2000 {
			c.Ingest(randomRecord(rng, windowMs))
		}
		c.IngestMetricsAt(metricRows(rng, windowMs/1000))
		return c
	}
	first := collect()
	reference := first.RebuildFrame()
	frame := first.Frame()
	first.Release()
	collect()
	if err := framesEqual(frame, reference); err != nil {
		t.Fatalf("the next window wrote into the released window's frame: %v", err)
	}
}

// TestReleaseRecyclesUnsealedSeries: a window released without a seal gave
// its series to no frame, so the next window draws them: in the steady
// state, a window of 28 templates makes fewer objects than it has
// templates (one slab each, and the metric set's, are recycled).
func TestReleaseRecyclesUnsealedSeries(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the pools drop a quarter of what they are handed")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	batches := windowBatches()
	rows := metricRows(rand.New(rand.NewSource(41)), 300)
	reg := NewRegistry()
	window := func() {
		c := NewCollector("unsealed", 0, 300_000, reg, nil)
		for _, b := range batches {
			c.IngestBatch(b)
		}
		c.IngestMetricsAt(rows)
		c.Release()
	}
	window() // interns the templates and fills the pools
	if allocs := testing.AllocsPerRun(5, window); allocs >= 28 {
		t.Errorf("a window released unsealed allocates %.0f objects in the steady state, budget < 28 (its templates)", allocs)
	}
}

// TestArrangedRunsAreHandedOver: TakeArranged is a transfer. A store
// that cut the array into chunks of its arena writes into them — an append
// after a TruncateFrom inside one overwrites its tail, an Expire trims one —
// and none of it shows in a frame held from before, in a frame sealed
// afterwards, or in the array a second call derives, whether the array was
// taken after the seal or before it.
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

		arranged := c.TakeArranged()
		want := slices.Clone(arranged)
		long := logstore.New(1)
		if n, err := long.AppendBatch("owner", arranged); n != len(arranged) || err != nil {
			t.Fatalf("AppendBatch = %d, %v", n, err)
		}
		if got := scanAll(long, "owner", 0, windowMs); !slices.Equal(got, want) {
			t.Fatal("the adopting store scans back something else than it was handed")
		}
		mid := want[len(want)/2].ArrivalMs
		long.TruncateFrom("owner", mid)
		for i := 0; i < 100; i++ { // into the truncated chunk's free space
			if err := long.Append("owner", logstore.Record{TemplateIdx: -2, ArrivalMs: mid + int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		long.Expire(want[len(want)/4].ArrivalMs)
		if slices.Equal(arranged, want) {
			t.Fatal("fixture lost its teeth: the store never wrote into the array it was handed")
		}

		if err := framesEqual(held, reference); err != nil {
			t.Fatalf("sealFirst=%v: held frame changed: %v", sealFirst, err)
		}
		if err := framesEqual(c.Frame(), reference); err != nil {
			t.Fatalf("sealFirst=%v: frame sealed after the hand-over: %v", sealFirst, err)
		}
		if got := c.TakeArranged(); !slices.Equal(got, want) {
			t.Fatalf("sealFirst=%v: a second TakeArranged returned what the store wrote into", sealFirst)
		}
	}
}

// FuzzWindowLog: any record stream, cut into any batches and sealed once at
// its end, yields the frame the independent reference builds from the log
// of a shadow collector — fed every TemplateID in storage of its own, it
// resolves templates through its map alone — and its arranged records are
// the stable sort of its log whenever they are taken, and what the store
// handed them at the seal scans back. Each frame group is the arranged
// array filtered to its template: the frame's order, computed per group,
// is the store's scan order, computed across templates. Each
// record is six bytes: template (low four bits) and the storage its ID
// comes in (next two: a string shared by the template's records, a fresh
// copy, a prefix of one base string, the raw SQL alone), arrival (two,
// scaled over a window that records may fall outside), response (two), and
// flags — throttled, end the batch here (either of the next two bits), take
// the arranged records.
func FuzzWindowLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 16, 0, 9, 0x06, 1, 0, 16, 0, 7, 0x0e, 2, 0, 8, 1, 1, 0x01, 1, 0, 16, 2, 2, 0x06}) // ties across batches
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
	for i := 0; i < len(seed); i += 6 { // the same stream, its IDs in every kind of storage
		seed[i] |= byte(rng.Intn(4)) << 4
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const startMs, endMs = 2_000, 62_000
		store := logstore.New(0)
		c := NewCollector("fuzz", startMs, endMs, nil, store)
		shadow := NewCollector("fuzz", startMs, endMs, nil, nil)
		templates := [...]string{"FZ0", "FZ1", "FZ2", "FZ3", "FZ4", "FZ5", "FZ6", "FZ7", "FZ8", "FZ9", "FZa", "FZb", "FZc", "FZd", "FZe", "FZf"}
		const base = "FZ0123456789abcdef" // its prefix "FZ0" is templates[0] in other storage
		var batch []dbsim.LogRecord
		take := func() []logstore.Record {
			got, want := c.TakeArranged(), arrivalOrder(c)
			if !slices.Equal(got, want) {
				t.Fatalf("the arranged array holds %d records, the stable sort %d, or differ", len(got), len(want))
			}
			return got
		}
		flush := func() {
			c.IngestBatch(batch)
			shadow.IngestBatch(withFreshIDs(batch))
			batch = batch[:0]
		}
		for ; len(data) >= 6; data = data[6:] {
			r := rec(templates[data[0]%16], "", "fuzz", dbsim.KindSelect,
				int64(binary.LittleEndian.Uint16(data[1:])), float64(binary.LittleEndian.Uint16(data[3:]))/8, int64(data[3]))
			switch data[0] >> 4 & 3 {
			case 1:
				r.TemplateID = strings.Clone(r.TemplateID)
			case 2:
				r.TemplateID = base[:2+data[0]%16]
			case 3:
				r.TemplateID, r.SQL = "", fmt.Sprintf("SELECT c%d FROM fuzz", data[0]%16)
			}
			flags := data[5]
			r.Throttled = flags&0x01 != 0
			batch = append(batch, r)
			if flags&0x0e != 0 {
				flush()
			}
			if flags&0x08 != 0 {
				take()
			}
		}
		flush()
		fr := c.Frame()
		if err := framesEqual(fr, shadow.RebuildFrame()); err != nil {
			t.Fatalf("sealed frame diverges from the map-resolved shadow's reference: %v", err)
		}
		if got, want := scanAll(store, "fuzz", startMs, endMs), arrivalOrder(c); !slices.Equal(got, want) {
			t.Fatalf("the store scans back %d records, the stable sort is %d, or they differ", len(got), len(want))
		}
		arranged := take()
		for pos := range fr.Templates {
			arrival, response := fr.Obs(pos)
			k := 0
			for _, r := range arranged {
				if r.TemplateIdx != fr.Templates[pos].Meta.Index {
					continue
				}
				if k == len(arrival) || arrival[k] != r.ArrivalMs || math.Float64bits(response[k]) != math.Float64bits(r.ResponseMs) {
					t.Fatalf("template %s: group row %d is not the arranged array's row for it", fr.Templates[pos].Meta.ID, k)
				}
				k++
			}
			if k != len(arrival) {
				t.Fatalf("template %s: group holds %d rows, the arranged array %d", fr.Templates[pos].Meta.ID, len(arrival), k)
			}
		}
	})
}
