package logstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// The routine restoreOrder replaced — flatten, stable comparison sort,
// re-chunk — kept here as its oracle: it is the definition of the order
// (ascending ArrivalMs, ties in insertion order).

// flatten materializes the topic in insertion order.
func (t *topicLog) flatten() []Record {
	out := make([]Record, 0, t.size)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// sortByComparison restores a topic's order the way the store did before
// restoreOrder.
func (t *topicLog) sortByComparison() {
	recs := t.flatten()
	slices.SortStableFunc(recs, byArrival)
	t.chunks = t.chunks[:0]
	t.size = 0
	t.push(recs...)
	t.dirty = false
}

// oracleScan is Scan with the oracle in ensureSorted's place.
func oracleScan(s *Store, topic string, fromMs, toMs int64) []Record {
	if t := s.topics[topic]; t != nil && t.dirty {
		t.sortByComparison()
	}
	return s.Scan(topic, fromMs, toMs)
}

// looseProgram decodes fuzz input into loose batches. Each instruction is
// an opcode byte and its operands:
//
//	0 cut      end the current batch; with the high bit set, scan too
//	           (the first maxFuzzScans times: a scan is O(records))
//	1 literal  8 bytes: one record arriving at that int64 (the anchor)
//	2 ramp     2 bytes count, 2 bytes step: count records, each step ms
//	           after its predecessor (negative steps run backwards)
//	3 pile     2 bytes count, 1 byte seed: count records scattered over
//	           the second that starts at the anchor
//
// TemplateIdx numbers the records in insertion order, so comparing whole
// records checks the tie order too.
type looseProgram struct {
	batches [][]Record
	scan    []bool // scan after batch i
}

const (
	maxFuzzRecords = 1 << 16
	maxFuzzScans   = 8
)

func decodeLooseProgram(data []byte) looseProgram {
	var p looseProgram
	var cur []Record
	var anchor, last int64
	n := 0
	emit := func(ms int64) {
		cur = append(cur, Record{TemplateIdx: int32(n), ArrivalMs: ms, ResponseMs: float64(n)})
		last = ms
		n++
	}
	scans := 0
	cut := func(scan bool) {
		scan = scan && scans < maxFuzzScans
		if scan {
			scans++
		}
		p.batches = append(p.batches, cur)
		p.scan = append(p.scan, scan)
		cur = nil
	}
	for len(data) > 0 && n < maxFuzzRecords {
		op := data[0]
		data = data[1:]
		switch op & 3 {
		case 0:
			cut(op&0x80 != 0)
		case 1:
			if len(data) < 8 {
				data = nil
				break
			}
			anchor = int64(binary.LittleEndian.Uint64(data))
			emit(anchor)
			data = data[8:]
		case 2:
			if len(data) < 4 {
				data = nil
				break
			}
			count := int(binary.LittleEndian.Uint16(data))
			step := int64(int16(binary.LittleEndian.Uint16(data[2:])))
			for i := 0; i < count && n < maxFuzzRecords; i++ {
				emit(last + step) // wraps at the int64 ends, like any other arrival
			}
			data = data[4:]
		case 3:
			if len(data) < 3 {
				data = nil
				break
			}
			count := int(binary.LittleEndian.Uint16(data))
			lcg := uint32(data[2])
			for i := 0; i < count && n < maxFuzzRecords; i++ {
				lcg = lcg*1664525 + 1013904223
				emit(anchor + int64(lcg>>16)%1000)
			}
			data = data[3:]
		}
	}
	scans = 0
	cut(true)
	return p
}

func literal(ms int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{1}, uint64(ms))
}

func ramp(count int, step int16) []byte {
	b := binary.LittleEndian.AppendUint16([]byte{2}, uint16(count))
	return binary.LittleEndian.AppendUint16(b, uint16(step))
}

func pile(count int, seed byte) []byte {
	return append(binary.LittleEndian.AppendUint16([]byte{3}, uint16(count)), seed)
}

// FuzzLooseOrder: any arrival sequence, cut into any loose batches with
// scans in between, must read back in exactly the order the stable
// comparison sort gives on the insertion sequence; and Arrange, handed the
// same sequence cut into any chunk list, must return that order in runs a
// store can adopt, leaving the list as it was.
func FuzzLooseOrder(f *testing.F) {
	day := int64(24 * 3600 * 1000)
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	f.Add(cat(literal(-5), literal(0), literal(-5), literal(0), []byte{0}, literal(-1_000_000), literal(7)))
	f.Add(cat(literal(math.MaxInt64), literal(math.MinInt64), literal(0), []byte{0x80}, literal(math.MinInt64), literal(math.MaxInt64)))
	f.Add(cat(literal(42), ramp(5000, 0)))                                        // all equal
	f.Add(cat(literal(1<<40), ramp(20_000, -1), []byte{0}, ramp(20_000, -7)))     // reverse order
	f.Add(cat(literal(3_000), pile(50_000, 9)))                                   // 50 k records inside one second
	f.Add(cat(literal(3*day), literal(2*day), literal(day), literal(0)))          // one record per day across the TTL
	f.Add(cat(literal(0), ramp(3000, 6), []byte{0x80}, pile(300, 1), literal(9))) // in order, scanned, then disturbed
	f.Add(cat(literal(math.MaxInt64-3), ramp(10, 1)))                             // ramp wrapping past MaxInt64
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLooseProgram(data)
		got, want := New(0), New(0)
		for i, b := range p.batches {
			got.AppendLooseBatch("t", b)
			want.AppendLooseBatch("t", b)
			if !p.scan[i] {
				continue
			}
			// [MinInt64, MaxInt64) leaves out arrivals at MaxInt64, so the
			// arenas themselves are compared as well.
			g := got.Scan("t", math.MinInt64, math.MaxInt64)
			w := oracleScan(want, "t", math.MinInt64, math.MaxInt64)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("after batch %d: Scan differs from the stable sort (%d vs %d records)", i, len(g), len(w))
			}
			if gt, wt := got.topics["t"], want.topics["t"]; !reflect.DeepEqual(gt.flatten(), wt.flatten()) || gt.size != wt.size || gt.dirty {
				t.Fatalf("after batch %d: arena differs from the stable sort", i)
			}
		}

		all := slices.Concat(p.batches...)
		var log [][]Record
		for rest, i := slices.Clone(all), 0; len(rest) > 0; i++ {
			n := min(len(rest), int(data[i%len(data)])*37+i%2) // empty chunks included
			log = append(log, rest[:n:n])
			rest = rest[n:]
		}
		runs, _ := Arrange(log)
		for i, run := range runs {
			if len(run) == 0 || len(run) > chunkCap || len(run) != cap(run) || len(run) < chunkCap/2 && len(runs) > 1 {
				t.Fatalf("run %d of %d: len %d, cap %d", i, len(runs), len(run), cap(run))
			}
		}
		if !reflect.DeepEqual(slices.Concat(log...), all) {
			t.Fatal("Arrange wrote into the log it was handed")
		}
		slices.SortStableFunc(all, byArrival)
		if !reflect.DeepEqual(slices.Concat(runs...), all) {
			t.Fatalf("Arrange differs from the stable sort (%d records in %d chunks)", len(all), len(log))
		}

		// The counted entry: from any origin at or before the first arrival,
		// with the counts a writer would have kept, the same runs — while
		// the seconds fit a table, past sparseSlack included.
		if len(all) == 0 {
			return
		}
		lo := all[0].ArrivalMs
		if back := int64(data[0]) * 37; lo >= math.MinInt64+back {
			lo -= back
		}
		if span := (uint64(all[len(all)-1].ArrivalMs) - uint64(lo)) / 1000; span < 1<<17 {
			counts := make([]int, span+1+uint64(data[0]%3)) // empty seconds past the last record
			for i := range all {
				counts[second(&all[i], lo)]++
			}
			kept := slices.Clone(counts)
			counted, _ := ArrangeCounted(log, lo, counts)
			if !reflect.DeepEqual(counted, runs) {
				t.Fatalf("ArrangeCounted from %d ms before the first arrival: %d runs, Arrange %d, or they differ", all[0].ArrivalMs-lo, len(counted), len(runs))
			}
			if !slices.Equal(counts, kept) || !reflect.DeepEqual(slices.Concat(log...), slices.Concat(p.batches...)) {
				t.Fatal("ArrangeCounted wrote into the counts or the log it was handed")
			}
		}
	})
}

// completionOrdered returns n records arriving evenly over the given number
// of seconds, in the order a query log emits them: by completion, so a
// record sits behind every later arrival that finished before it. One
// record in eighty waits out a lock for up to two minutes.
func completionOrdered(n, seconds int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	done := make([]float64, n)
	for i := range recs {
		resp := rng.ExpFloat64() * 40
		if rng.Intn(80) == 0 {
			resp = rng.Float64() * 120_000
		}
		recs[i] = Record{TemplateIdx: int32(i % 28), ArrivalMs: int64(i) * int64(seconds) * 1000 / int64(n), ResponseMs: resp}
		done[i] = float64(recs[i].ArrivalMs) + resp
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return done[idx[a]] < done[idx[b]] })
	out := make([]Record, n)
	for i, j := range idx {
		out[i] = recs[j]
	}
	return out
}

// looseStore returns a store holding recs in one topic, appended loosely a
// second's worth at a time, as a collector does.
func looseStore(recs []Record, perBatch int) *Store {
	s := New(0)
	for len(recs) > 0 {
		n := min(perBatch, len(recs))
		s.AppendLooseBatch("t", recs[:n])
		recs = recs[n:]
	}
	return s
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestRestoreOrderBudget bounds the work of restoring a fleet-sized
// window's order, in bytes and in record moves rather than in time: one new
// record array plus a table of offsets per second, and a number of moves
// proportional to the disorder. The flatten-sort-rebuild oracle allocates
// two record arrays and fails the byte budget.
func TestRestoreOrderBudget(t *testing.T) {
	const n, seconds = 47_000, 300
	recs := completionOrdered(n, seconds, 1)
	raw := int64(n) * int64(unsafe.Sizeof(Record{}))
	budget := raw + raw/20 + int64(seconds+sparseSlack)*8

	s := looseStore(recs, n/seconds)
	tl := s.topics["t"]
	if !tl.dirty {
		t.Fatal("completion-ordered input left the topic clean")
	}
	var moves int
	if got := allocated(func() { moves = tl.restoreOrder() }); got > budget {
		t.Errorf("restoreOrder allocated %d B, budget %d B (records %d B)", got, budget, raw)
	}
	// Shallow disorder: a few positions per record, nowhere near the
	// budget at which the comparison sort takes over.
	if moves == 0 || moves > 8*n {
		t.Errorf("restoreOrder moved %d records for %d", moves, n)
	}

	o := looseStore(recs, n/seconds)
	if got := allocated(o.topics["t"].sortByComparison); got <= budget {
		t.Errorf("the flatten-sort-rebuild oracle allocated %d B, within the budget of %d B", got, budget)
	}
	if !reflect.DeepEqual(tl.flatten(), o.topics["t"].flatten()) {
		t.Fatal("restoreOrder and the oracle disagree")
	}
}

// TestRestoreOrderWorstCases: inputs on which insertion alone would be
// quadratic — reverse order, tens of thousands of records piled into one
// second — stay within c·n·log n record moves, which they can only do if
// the budgeted fallback to the comparison sort fires; and they still come
// out in the stable sort's order.
func TestRestoreOrderWorstCases(t *testing.T) {
	const n = 50_000
	rng := rand.New(rand.NewSource(3))
	inputs := map[string]func(i int) int64{
		"reverse":         func(i int) int64 { return int64(n - i) },
		"reverse seconds": func(i int) int64 { return int64(n-i) * 250 },
		"one-second pile": func(int) int64 { return 7_000 + rng.Int63n(1000) },
		"sawtooth":        func(i int) int64 { return int64(i%997) * 1000 / 997 },
	}
	for name, arrival := range inputs {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{TemplateIdx: int32(i), ArrivalMs: arrival(i)}
		}
		s, o := looseStore(recs, 157), looseStore(recs, 157)
		moves := s.topics["t"].restoreOrder()
		if limit := 6 * n * bits.Len(n); moves > limit {
			t.Errorf("%s: %d moves for %d records, over the n·log n limit %d", name, moves, n, limit)
		}
		o.topics["t"].sortByComparison()
		if !reflect.DeepEqual(s.topics["t"].flatten(), o.topics["t"].flatten()) {
			t.Errorf("%s: restoreOrder and the oracle disagree", name)
		}
	}
	// The fallback itself: a reversed run exhausts its budget.
	run := make([]Record, 4096)
	for i := range run {
		run[i].ArrivalMs = int64(len(run) - i)
	}
	if moves, done := insertionSort(run, moveBudget(len(run))); done || moves > moveBudget(len(run))+len(run) {
		t.Errorf("insertionSort on a reversed run: done=%v after %d moves, budget %d", done, moves, moveBudget(len(run)))
	}
}

// TestLooseAppendsInOrderStayClean: orderedness is decided while a loose
// batch is copied — first record against the tail, then neighbour against
// neighbour — so in-order loose appends never mark the topic and the
// readers pay no pass; one record behind its predecessor does.
func TestLooseAppendsInOrderStayClean(t *testing.T) {
	s := New(0)
	dirty := func() bool { return s.topics["t"].dirty }
	s.AppendLooseBatch("t", nil)
	s.AppendLooseBatch("t", []Record{{ArrivalMs: 5}, {ArrivalMs: 5}, {ArrivalMs: 9}})
	s.AppendLoose("t", Record{ArrivalMs: 9})
	if err := s.Append("t", Record{ArrivalMs: 8}); err != nil { // slack insert keeps order
		t.Fatal(err)
	}
	s.AppendLooseBatch("t", []Record{{ArrivalMs: 9}, {ArrivalMs: 12}})
	if dirty() {
		t.Fatal("in-order loose appends marked the topic dirty")
	}
	s.AppendLooseBatch("t", []Record{{ArrivalMs: 12}, {ArrivalMs: 11}}) // neighbour behind neighbour
	if !dirty() {
		t.Fatal("a descending loose batch left the topic clean")
	}
	s.AppendLooseBatch("t", []Record{{ArrivalMs: 20}})
	if !dirty() {
		t.Fatal("an in-order batch cleaned a dirty topic")
	}
	if lo, hi, ok := s.Bounds("t"); !ok || lo != 5 || hi != 20 || dirty() {
		t.Fatalf("Bounds = %d, %d, %v (dirty %v)", lo, hi, ok, dirty())
	}
	s.AppendLoose("t", Record{ArrivalMs: 19}) // first record behind the tail
	if !dirty() {
		t.Fatal("a loose record behind the tail left the topic clean")
	}
}

// TestStrictBatchEqualsRecordLoop: strict AppendBatch calls of any runs —
// in order for whole chunks (which the store adopts instead of copying),
// disturbed within the slack, broken beyond it — on a topic in any state,
// with TruncateFrom and Expire in between, leave the records, every Scan,
// Len, Bounds, the accepted count and the error identical to appending the
// records one at a time. The batch store is given a clone: it owns, and
// writes into, what it is handed.
func TestStrictBatchEqualsRecordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adoptions := 0
	for trial := 0; trial < 120; trial++ {
		batch, loop := New(1), New(1)
		both := func(fn func(s *Store) int) {
			t.Helper()
			if b, l := fn(batch), fn(loop); b != l {
				t.Fatalf("trial %d: the batch store removed %d records, the record loop %d", trial, b, l)
			}
		}
		clock := int64(rng.Intn(10_000))
		switch trial % 4 {
		case 1: // clean, ending mid-chunk or exactly at a chunk boundary
			n := chunkCap - 2 + rng.Intn(5)
			pre := make([]Record, n)
			for i := range pre {
				clock += int64(rng.Intn(3))
				pre[i] = Record{TemplateIdx: -1, ArrivalMs: clock}
			}
			both(func(s *Store) int { s.AppendLooseBatch("t", pre); return 0 })
		case 2: // dirty: loose appends pending
			both(func(s *Store) int {
				s.AppendLooseBatch("t", []Record{{ArrivalMs: clock}, {ArrivalMs: clock - 300}, {ArrivalMs: clock - 100}})
				return 0
			})
			clock -= 100
		case 3: // restored: the tail chunk is full at a capacity of its own
			both(func(s *Store) int {
				s.AppendLooseBatch("t", []Record{{ArrivalMs: clock}, {ArrivalMs: clock - 300}, {ArrivalMs: clock - 100}})
				s.Scan("t", 0, 1)
				return 0
			})
		}
		for round := 0; round <= trial%3; round++ {
			// A calm run is disturbed two hundred times less often: its
			// in-order stretches are chunks long.
			odds := 1000
			if rng.Intn(2) == 0 {
				odds = 200_000
			}
			run := make([]Record, 1+rng.Intn(3*chunkCap))
			for i := range run {
				switch k := rng.Intn(odds); {
				case k < 3 && trial%2 == 0:
					clock -= 5001 + int64(rng.Intn(100)) // beyond the slack: ends the batch
				case k < 30:
					clock -= int64(rng.Intn(4000))
				default:
					clock += int64(rng.Intn(4))
				}
				run[i] = Record{TemplateIdx: int32(i), ArrivalMs: clock}
			}
			own := slices.Clone(run)
			took, err := batch.AppendBatch("t", own)
			want, wantErr := len(run), error(nil)
			for i, r := range run {
				if e := loop.Append("t", r); e != nil {
					want, wantErr = i, e
					break
				}
			}
			if took != want || err != wantErr {
				t.Fatalf("trial %d: AppendBatch = %d, %v; record loop = %d, %v", trial, took, err, want, wantErr)
			}
			for _, c := range batch.topics["t"].chunks {
				if at := uintptr(unsafe.Pointer(&c[0])) - uintptr(unsafe.Pointer(&own[0])); at < uintptr(len(own))*unsafe.Sizeof(Record{}) {
					adoptions++ // the chunk lies inside the slice handed over
				}
			}
			if newest, ok := batch.topics["t"].last(); ok {
				clock = newest.ArrivalMs // a rejected record left the clock behind the topic
			}
			switch rng.Intn(4) {
			case 0: // inside the chunks just appended, as a rule
				from := clock - int64(rng.Intn(3000))
				both(func(s *Store) int { return s.TruncateFrom("t", from) })
			case 1:
				lo, _, _ := loop.Bounds("t")
				both(func(s *Store) int { return s.Expire(lo + (clock-lo)/3) })
			}
			bt, lt := batch.topics["t"], loop.topics["t"]
			if (bt == nil) != (lt == nil) {
				t.Fatalf("trial %d: one store dropped the topic", trial)
			}
			if bt == nil {
				continue
			}
			if bt.size != lt.size || bt.dirty != lt.dirty || !slices.Equal(bt.flatten(), lt.flatten()) || batch.Len("t") != loop.Len("t") {
				t.Fatalf("trial %d: stores differ after a batch of %d (%d accepted)", trial, len(run), took)
			}
			blo, bhi, bok := batch.Bounds("t")
			llo, lhi, lok := loop.Bounds("t")
			if blo != llo || bhi != lhi || bok != lok {
				t.Fatalf("trial %d: Bounds = %d, %d, %v; record loop %d, %d, %v", trial, blo, bhi, bok, llo, lhi, lok)
			}
			for w := 0; w < 4; w++ {
				from := llo + rng.Int63n(lhi-llo+1)
				to := from + rng.Int63n(lhi-llo+2)
				if !slices.Equal(batch.Scan("t", from, to), loop.Scan("t", from, to)) {
					t.Fatalf("trial %d: Scan[%d, %d) differs", trial, from, to)
				}
			}
			if newest, ok := lt.last(); ok {
				clock = newest.ArrivalMs
			}
		}
	}
	if adoptions < 50 {
		t.Errorf("fixture too tame: %d stretches adopted as chunks", adoptions)
	}
}
