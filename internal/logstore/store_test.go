package logstore

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// scanAll collects ScanFunc's records of [fromMs, toMs), empty but not nil
// when there are none.
func scanAll(b Backend, topic string, fromMs, toMs int64) []Record {
	out := []Record{}
	b.ScanFunc(topic, fromMs, toMs, func(r Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

func TestAppendAndScan(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		if err := s.Append("db1", Record{TemplateIdx: int32(i), ArrivalMs: int64(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	got := scanAll(s, "db1", 200, 500)
	if len(got) != 3 {
		t.Fatalf("scan returned %d records, want 3", len(got))
	}
	for i, r := range got {
		if want := int64(200 + i*100); r.ArrivalMs != want {
			t.Errorf("rec[%d].ArrivalMs = %d, want %d", i, r.ArrivalMs, want)
		}
	}
}

func TestScanEmptyAndMissingTopic(t *testing.T) {
	s := New(0)
	if got := scanAll(s, "nope", 0, 100); len(got) != 0 {
		t.Errorf("missing topic scan = %v", got)
	}
	s.Append("a", Record{ArrivalMs: 50})
	if got := scanAll(s, "a", 100, 200); len(got) != 0 {
		t.Errorf("out-of-range scan = %v", got)
	}
}

// TestSlackReordering: the store has no slack window — a record behind the
// topic's newest is refused, not reordered into place, and leaves the topic
// as it was; equal arrivals are accepted in ingest order.
func TestSlackReordering(t *testing.T) {
	s := New(0)
	s.Append("t", Record{TemplateIdx: 0, ArrivalMs: 1000})
	s.Append("t", Record{TemplateIdx: 1, ArrivalMs: 3000})
	if err := s.Append("t", Record{TemplateIdx: 2, ArrivalMs: 2999}); err != ErrUnsortedAppend {
		t.Errorf("append 1 ms behind the newest: error %v, want ErrUnsortedAppend", err)
	}
	if err := s.Append("t", Record{TemplateIdx: 3, ArrivalMs: 3000}); err != nil {
		t.Fatalf("tie with the newest: %v", err)
	}
	want := []Record{{TemplateIdx: 0, ArrivalMs: 1000}, {TemplateIdx: 1, ArrivalMs: 3000}, {TemplateIdx: 3, ArrivalMs: 3000}}
	if got := scanAll(s, "t", 0, 10_000); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestExpire(t *testing.T) {
	s := New(1000) // 1 s TTL
	for i := 0; i < 10; i++ {
		s.Append("t", Record{ArrivalMs: int64(i * 100)})
	}
	removed := s.Expire(1500) // cutoff = 500
	if removed != 5 {
		t.Errorf("removed = %d, want 5", removed)
	}
	if s.Len("t") != 5 {
		t.Errorf("live records = %d, want 5", s.Len("t"))
	}
	// Expiring everything drops the topic.
	s.Expire(100_000)
	if s.Len("t") != 0 {
		t.Errorf("live records = %d, want 0", s.Len("t"))
	}
	if _, ok := s.topics["t"]; ok {
		t.Error("a fully expired topic is kept")
	}
}

func TestDefaultTTL(t *testing.T) {
	if got := New(0).ttlMs; got != DefaultTTLMs {
		t.Errorf("default TTL = %d", got)
	}
	if got := New(42).ttlMs; got != 42 {
		t.Errorf("custom TTL = %d", got)
	}
}

func TestConcurrentAppendScan(t *testing.T) {
	s := New(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := string(rune('a' + w)) // one writer a topic: its appends stay in order
			for i := 0; i < 500; i++ {
				s.Append(topic, Record{ArrivalMs: int64(i)})
				if i%50 == 0 {
					scanAll(s, topic, 0, int64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w := 0; w < 8; w++ {
		total += s.Len(string(rune('a' + w)))
	}
	if total != 8*500 {
		t.Errorf("total records = %d, want 4000", total)
	}
}

// Property: after any sequence of in-order appends, every topic scan is
// sorted and Scan(from,to) returns exactly the records in range.
func TestScanWindowProperty(t *testing.T) {
	f := func(offsets []uint16, from, to uint16) bool {
		s := New(0)
		base := int64(0)
		for _, off := range offsets {
			base += int64(off % 512)
			if err := s.Append("t", Record{ArrivalMs: base}); err != nil {
				return false
			}
		}
		lo, hi := int64(from), int64(to)
		if lo > hi {
			lo, hi = hi, lo
		}
		recs := scanAll(s, "t", lo, hi)
		for i, r := range recs {
			if r.ArrivalMs < lo || r.ArrivalMs >= hi {
				return false
			}
			if i > 0 && recs[i-1].ArrivalMs > r.ArrivalMs {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Expire never removes records newer than the cutoff and Len
// decreases by exactly the removed count.
func TestExpireProperty(t *testing.T) {
	f := func(times []uint32, now uint32) bool {
		s := New(1000)
		base := int64(0)
		n := 0
		for _, dt := range times {
			base += int64(dt % 300)
			if s.Append("t", Record{ArrivalMs: base}) == nil {
				n++
			}
		}
		before := s.Len("t")
		removed := s.Expire(int64(now))
		after := s.Len("t")
		if before-removed != after {
			return false
		}
		cutoff := int64(now) - 1000
		for _, r := range scanAll(s, "t", 0, 1<<62) {
			if r.ArrivalMs < cutoff {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestScanFuncStreamsWindow(t *testing.T) {
	s := New(0)
	for i := 0; i < 20; i++ {
		s.Append("t", Record{TemplateIdx: int32(i), ArrivalMs: int64(i * 13 / 3)})
	}
	want := scanAll(s, "t", 20, 80)
	var got []Record
	s.ScanFunc("t", 20, 80, func(r Record) bool {
		got = append(got, r)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ScanFunc streamed %d records, Scan returned %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Early stop terminates the stream.
	seen := 0
	s.ScanFunc("t", 0, 1<<62, func(Record) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("early stop saw %d records, want 3", seen)
	}
	// Missing topics stream nothing.
	s.ScanFunc("nope", 0, 1<<62, func(Record) bool {
		t.Error("callback invoked for a missing topic")
		return false
	})
}

func TestBounds(t *testing.T) {
	s := New(0)
	if _, _, ok := s.Bounds("t"); ok {
		t.Error("Bounds ok for an empty store")
	}
	s.Append("t", Record{ArrivalMs: -50})
	s.Append("t", Record{ArrivalMs: 300})
	s.Append("t", Record{ArrivalMs: 700})
	s.Append("t", Record{ArrivalMs: 299}) // refused
	min, max, ok := s.Bounds("t")
	if !ok || min != -50 || max != 700 {
		t.Errorf("Bounds = %d, %d, %v, want -50, 700, true", min, max, ok)
	}
}

func TestCloseIsNoop(t *testing.T) {
	s := New(0)
	s.Append("t", Record{ArrivalMs: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Len("t"); got != 1 {
		t.Errorf("Len after Close = %d", got)
	}
}

// TestExpireSkipsCleanTopics pins the single-pass Expire: a topic whose
// records all survive must keep its backing slice (no copy, no re-sort).
func TestExpireSkipsCleanTopics(t *testing.T) {
	s := New(1000)
	for i := 0; i < 5; i++ {
		s.Append("fresh", Record{ArrivalMs: int64(10_000 + i)})
		s.Append("stale", Record{ArrivalMs: int64(i)})
	}
	if removed := s.Expire(11_000); removed != 5 {
		t.Fatalf("removed = %d, want 5", removed)
	}
	if got := s.Len("fresh"); got != 5 {
		t.Errorf("fresh Len = %d", got)
	}
	if got := s.Len("stale"); got != 0 {
		t.Errorf("stale Len = %d", got)
	}
}

// TestChunkedArenaDifferential drives the chunked arena and a flat
// reference slice through the same randomized mixed workload (in-order
// appends, refused appends behind the newest, expiry, truncation) and
// asserts every scan stays byte-identical to the flat model.
func TestChunkedArenaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New(0)
	var ref []Record // flat model: the accepted records in order
	now := int64(0)
	for op := 0; op < 30_000; op++ {
		switch k := rng.Intn(100); {
		case k < 80: // in-order append
			now += int64(rng.Intn(20))
			rec := Record{TemplateIdx: int32(op), ArrivalMs: now}
			if err := s.Append("t", rec); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			ref = append(ref, rec)
		case k < 95 && len(ref) > 0: // behind the newest arrival: refused, nothing changes
			rec := Record{TemplateIdx: int32(op), ArrivalMs: ref[len(ref)-1].ArrivalMs - 1 - int64(rng.Intn(5000))}
			if err := s.Append("t", rec); err != ErrUnsortedAppend {
				t.Fatalf("op %d: append behind the newest: %v", op, err)
			}
		case k < 98: // expire a prefix
			// Mirror Expire's cutoff arithmetic: Expire(nowMs) drops
			// records with ArrivalMs < nowMs-ttl. Use ttl=1 and
			// nowMs=cut so the cutoff is cut-1.
			cut := now - int64(rng.Intn(500))
			s.ttlMs = 1
			got := s.Expire(cut)
			s.ttlMs = 0
			want := 0
			keep := ref[:0:0]
			for _, r := range ref {
				if r.ArrivalMs < cut-1 {
					want++
					continue
				}
				keep = append(keep, r)
			}
			ref = keep
			if got != want {
				t.Fatalf("op %d: Expire removed %d, want %d", op, got, want)
			}
		default: // truncate a suffix
			cut := now - int64(rng.Intn(200))
			s.TruncateFrom("t", cut)
			keep := ref[:0:0]
			for _, r := range ref {
				if r.ArrivalMs < cut {
					keep = append(keep, r)
				}
			}
			ref = keep
		}
		if op%997 == 0 || op == 29_999 {
			lo := now - int64(rng.Intn(2000))
			hi := lo + int64(rng.Intn(2000))
			got := scanAll(s, "t", lo, hi)
			want := refScan(ref, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("op %d: scan len %d, want %d", op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: scan[%d] = %+v, want %+v", op, i, got[i], want[i])
				}
			}
			if s.Len("t") != len(ref) {
				t.Fatalf("op %d: Len %d, want %d", op, s.Len("t"), len(ref))
			}
		}
	}
	// Final full-range sweep.
	got := scanAll(s, "t", -1<<62, 1<<62)
	if len(got) != len(ref) {
		t.Fatalf("final scan len %d, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("final scan[%d] = %+v, want %+v", i, got[i], ref[i])
		}
	}
}

func refScan(ref []Record, fromMs, toMs int64) []Record {
	lo := sort.Search(len(ref), func(i int) bool { return ref[i].ArrivalMs >= fromMs })
	hi := sort.Search(len(ref), func(i int) bool { return ref[i].ArrivalMs >= toMs })
	out := make([]Record, hi-lo)
	copy(out, ref[lo:hi])
	return out
}

// TestAppendAllocBudget pins the chunked arena's growth cost: appending N
// in-order records must allocate close to the raw data size (one fresh
// chunk at a time), not the ~2× of a doubling []Record. This is the
// regression gate for the growslice hot spot seen at 128 fleet instances.
func TestAppendAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	const n = 1 << 18 // 256 Ki records ≈ 8 MiB of raw data
	recSize := int64(unsafe.Sizeof(Record{}))
	raw := int64(n) * recSize

	s := New(0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := s.Append("t", Record{ArrivalMs: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	grew := int64(after.TotalAlloc - before.TotalAlloc)

	// Chunked arena: n/chunkCap chunk allocations + spine growth. Budget
	// 1.25× raw data; the old doubling slice costs ~2× raw and fails.
	budget := raw + raw/4
	if grew > budget {
		t.Fatalf("appending %d records allocated %d B, budget %d B (raw %d B)", n, grew, budget, raw)
	}
	if s.Len("t") != n {
		t.Fatalf("Len = %d, want %d", s.Len("t"), n)
	}
}

// TestAppendBatchAllocBudget: in-order runs a chunk long, each continuing
// the topic, become the arena's chunks as they are: appending them allocates the chunk spine and nothing per
// record. A run that fits the tail's free space is copied there instead.
func TestAppendBatchAllocBudget(t *testing.T) {
	const chunks = 64
	runs := make([][]Record, chunks)
	for k := range runs {
		runs[k] = make([]Record, chunkCap)
		for i := range runs[k] {
			runs[k][i] = Record{TemplateIdx: int32(k), ArrivalMs: int64(k*chunkCap + i)}
		}
	}
	firsts := make([]*Record, chunks)
	for k := range runs {
		firsts[k] = &runs[k][0]
	}
	// TotalAlloc also counts the runtime's background allocations: the
	// least of several fresh stores is the appends' own.
	var s *Store
	grew := int64(math.MaxInt64)
	for range 5 {
		s = New(0)
		grew = min(grew, allocated(func() {
			for _, run := range runs {
				if n, err := s.AppendBatch("t", run); n != chunkCap || err != nil {
					t.Fatalf("AppendBatch = %d, %v", n, err)
				}
			}
		}))
	}
	// The spine doubles as it grows: under 4 slice headers per chunk.
	if budget := int64(chunks*4*24 + 1024); grew > budget {
		t.Errorf("appending %d chunk-long runs allocated %d B, budget %d B (records %d B)", chunks, grew, budget, chunks*chunkCap*int(unsafe.Sizeof(Record{})))
	}
	tl := s.topics["t"]
	if tl.size != chunks*chunkCap || len(tl.chunks) != chunks {
		t.Fatalf("%d records in %d chunks", tl.size, len(tl.chunks))
	}
	for k, c := range tl.chunks {
		if &c[0] != firsts[k] || cap(c) != len(c) {
			t.Fatalf("chunk %d is not run %d, full at its length", k, k)
		}
	}

	s.TruncateFrom("t", int64(tl.size-chunkCap/2-10)) // the tail chunk now has free space
	fits := make([]Record, chunkCap/2)
	for i := range fits {
		fits[i].ArrivalMs = int64(chunks * chunkCap)
	}
	s.AppendBatch("t", fits)
	if len(tl.chunks) != chunks || &tl.chunks[chunks-1][0] != firsts[chunks-1] {
		t.Error("a run that fits the tail chunk's free space was not copied there")
	}
}

// TestScanRunsEqualsScan: the records ScanFunc streams, one arena run after
// another, are a sorted reference slice's for the same range — across chunk
// boundaries, after expiry and truncation left short middle chunks, and
// with an early stop.
func TestScanRunsEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(0)
	const n = 3*chunkCap + 100
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TemplateIdx: int32(i), ArrivalMs: int64(rng.Intn(n))}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ArrivalMs < recs[j].ArrivalMs })
	s.AppendBatch("t", slices.Clone(recs))
	ref := recs
	check := func(stage string) {
		t.Helper()
		for w := 0; w < 200; w++ {
			from := int64(rng.Intn(n)) - 50
			to := from + int64(rng.Intn(n))
			if got, want := scanAll(s, "t", from, to), refScan(ref, from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ScanFunc[%d,%d) yielded %d records, want %d", stage, from, to, len(got), len(want))
			}
		}
	}
	check("one batch")
	s.ttlMs = 1
	s.Expire(n / 5) // trims the first chunk in place
	s.TruncateFrom("t", n-n/5)
	ref = slices.DeleteFunc(ref, func(r Record) bool { return r.ArrivalMs < n/5-1 || r.ArrivalMs >= n-n/5 })
	for i := 0; i < 50; i++ { // into the truncated chunk's free space, ties included
		rec := Record{TemplateIdx: -1, ArrivalMs: int64(n - n/5 + i/3)}
		if err := s.Append("t", rec); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, rec)
	}
	check("after expire, truncate and appends")

	calls := 0
	s.ScanFunc("t", 0, 1<<62, func(Record) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop saw %d records, want 1", calls)
	}
	s.ScanFunc("nope", 0, 1<<62, func(Record) bool {
		t.Error("callback invoked for a missing topic")
		return false
	})
}
