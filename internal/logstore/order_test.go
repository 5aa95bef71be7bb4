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

// arrange is ArrangeCounted with its writer's counting done here: it finds
// the log's bounds and counts its records per arrival second first. It is
// the oracle ArrangeCounted is held to, and the stable comparison sort is
// the definition of the order both return (ascending ArrivalMs, ties in
// insertion order).
func arrange(log [][]Record) (arranged []Record, work Work) {
	size := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, c := range log {
		size += len(c)
		for i := range c {
			lo, hi = min(lo, c[i].ArrivalMs), max(hi, c[i].ArrivalMs)
		}
	}
	// Unsigned subtraction is exact even when hi − lo overflows int64.
	seconds := (uint64(hi)-uint64(lo))/1000 + 1
	if seconds > uint64(size)+sparseSlack {
		arranged, work = sortWhole(log, size)
		work.Reads += size
		return arranged, work
	}
	next := make([]int, seconds+1)
	for _, c := range log {
		for i := range c {
			next[second(&c[i], lo)+1]++
		}
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	arranged, work = distribute(log, lo, next)
	work.Reads += 2 * size
	return arranged, work
}

// sortByComparison is the routine the distribution replaced — flatten,
// stable comparison sort, re-chunk.
func sortByComparison(log [][]Record) [][]Record {
	recs := slices.Concat(log...)
	slices.SortStableFunc(recs, byArrival)
	var t topicLog
	t.push(recs...)
	return t.chunks
}

// decodeLooseLog decodes fuzz input into a window log in completion order:
// a chunk list in any arrival order. Each instruction is an opcode byte and
// its operands:
//
//	0 cut      end the current chunk
//	1 literal  8 bytes: one record arriving at that int64 (the anchor)
//	2 ramp     2 bytes count, 2 bytes step: count records, each step ms
//	           after its predecessor (negative steps run backwards)
//	3 pile     2 bytes count, 1 byte seed: count records scattered over
//	           the second that starts at the anchor
//
// TemplateIdx numbers the records in insertion order, so comparing whole
// records checks the tie order too.
const maxFuzzRecords = 1 << 16

func decodeLooseLog(data []byte) [][]Record {
	var log [][]Record
	var cur []Record
	var anchor, last int64
	n := 0
	emit := func(ms int64) {
		cur = append(cur, Record{TemplateIdx: int32(n), ArrivalMs: ms, ResponseMs: float64(n)})
		last = ms
		n++
	}
	cut := func() {
		log = append(log, cur[:len(cur):len(cur)])
		cur = nil
	}
	for len(data) > 0 && n < maxFuzzRecords {
		op := data[0]
		data = data[1:]
		switch op & 3 {
		case 0:
			cut()
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
	cut()
	return log
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

// FuzzLooseOrder: any window log — any arrival sequence cut into any
// chunk list, empty chunks included — arranged by ArrangeCounted from any
// origin at or before its first arrival, with the counts its writer would
// have kept, comes out in exactly the stable comparison sort's order, as
// its oracle arrange does; the log and the counts are left as they were.
// Handed to a store in one batch, the array is cut into chunks of the
// shapes take promises and scans back as it is.
func FuzzLooseOrder(f *testing.F) {
	day := int64(24 * 3600 * 1000)
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	f.Add(cat(literal(-5), literal(0), literal(-5), literal(0), []byte{0}, literal(-1_000_000), literal(7)))
	f.Add(cat(literal(math.MaxInt64), literal(math.MinInt64), literal(0), []byte{0x80}, literal(math.MinInt64), literal(math.MaxInt64)))
	f.Add(cat(literal(42), ramp(5000, 0)))                                        // all equal
	f.Add(cat(literal(1<<40), ramp(20_000, -1), []byte{0}, ramp(20_000, -7)))     // reverse order
	f.Add(cat(literal(3_000), pile(50_000, 9)))                                   // 50 k records inside one second
	f.Add(cat(literal(3*day), literal(2*day), literal(day), literal(0)))          // one record per day across the TTL
	f.Add(cat(literal(0), ramp(3000, 6), []byte{0x80}, pile(300, 1), literal(9))) // in order, then disturbed
	f.Add(cat(literal(math.MaxInt64-3), ramp(10, 1)))                             // ramp wrapping past MaxInt64
	f.Fuzz(func(t *testing.T, data []byte) {
		log := decodeLooseLog(data)
		all := slices.Concat(log...)
		want := slices.Clone(all)
		slices.SortStableFunc(want, byArrival)

		arranged, _ := arrange(log)
		if !slices.Equal(arranged, want) {
			t.Fatalf("arrange differs from the stable sort (%d records in %d chunks)", len(all), len(log))
		}
		if len(all) == 0 {
			return
		}
		// ArrangeCounted from an origin up to 37·255 ms before the first
		// arrival, with empty seconds past the last record, while the
		// seconds fit a table — past sparseSlack included.
		lo := want[0].ArrivalMs
		if back := int64(data[0]) * 37; lo >= math.MinInt64+back {
			lo -= back
		}
		span := (uint64(want[len(want)-1].ArrivalMs) - uint64(lo)) / 1000
		if span >= 1<<17 {
			return
		}
		counts := make([]int, span+1+uint64(data[0]%3))
		for i := range all {
			counts[second(&all[i], lo)]++
		}
		kept := slices.Clone(counts)
		counted, _ := ArrangeCounted(log, lo, counts)
		if !reflect.DeepEqual(counted, arranged) {
			t.Fatalf("ArrangeCounted from %d ms before the first arrival differs from arrange (%d records)", want[0].ArrivalMs-lo, len(counted))
		}
		if !slices.Equal(counts, kept) || !reflect.DeepEqual(slices.Concat(log...), all) {
			t.Fatal("ArrangeCounted wrote into the counts or the log it was handed")
		}
		// Handed to a store, an array of half a chunk or more is cut into
		// chunks of its own, each full at its length and none shorter than
		// half a chunk; a shorter one is copied into a fresh chunk.
		s := New(0)
		if n, err := s.AppendBatch("t", counted); n != len(counted) || err != nil {
			t.Fatalf("AppendBatch of the arranged array took %d of %d (%v)", n, len(counted), err)
		}
		for i, c := range s.topics["t"].chunks {
			if len(c) < min(len(counted), chunkCap/2) || len(c) > chunkCap || (len(c) == cap(c)) != (len(counted) >= chunkCap/2) {
				t.Fatalf("chunk %d of %d records: len %d, cap %d", i, len(counted), len(c), cap(c))
			}
		}
		if got := s.topics["t"].flatten(); !reflect.DeepEqual(got, want) {
			t.Fatal("the store holds something else than the arranged array")
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

// completionLog returns recs as a collector's window log holds them: in
// chunks of perChunk, in the order they were emitted.
func completionLog(recs []Record, perChunk int) [][]Record {
	var log [][]Record
	for len(recs) > 0 {
		n := min(perChunk, len(recs))
		log = append(log, recs[:n:n])
		recs = recs[n:]
	}
	return log
}

// flatten materializes the topic in insertion order.
func (t *topicLog) flatten() []Record {
	out := make([]Record, 0, t.size)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
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
// window's arrival order with ArrangeCounted, in bytes and in record moves
// rather than in time: one new record array plus a table of offsets per
// second, and a number of moves proportional to the disorder. The
// flatten-sort-rebuild oracle allocates two record arrays and fails the
// byte budget.
func TestRestoreOrderBudget(t *testing.T) {
	const n, seconds = 47_000, 300
	recs := completionOrdered(n, seconds, 1)
	raw := int64(n) * int64(unsafe.Sizeof(Record{}))
	budget := raw + raw/20 + int64(seconds+sparseSlack)*8

	log := completionLog(recs, n/seconds)
	counts := make([]int, seconds)
	for i := range recs {
		counts[second(&recs[i], 0)]++
	}
	var arranged []Record
	var work Work
	if got := allocated(func() { arranged, work = ArrangeCounted(log, 0, counts) }); got > budget {
		t.Errorf("ArrangeCounted allocated %d B, budget %d B (records %d B)", got, budget, raw)
	}
	// Shallow disorder: a few positions per record, nowhere near the
	// budget at which the comparison sort takes over.
	if work.Moves == 0 || work.Moves > 8*n {
		t.Errorf("ArrangeCounted moved %d records for %d", work.Moves, n)
	}

	var sorted [][]Record
	if got := allocated(func() { sorted = sortByComparison(log) }); got <= budget {
		t.Errorf("the flatten-sort-rebuild oracle allocated %d B, within the budget of %d B", got, budget)
	}
	if !reflect.DeepEqual(arranged, slices.Concat(sorted...)) {
		t.Fatal("ArrangeCounted and the oracle disagree")
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
		log := completionLog(recs, 157)
		arranged, work := arrange(log)
		if limit := 6 * n * bits.Len(n); work.Moves > limit {
			t.Errorf("%s: %d moves for %d records, over the n·log n limit %d", name, work.Moves, n, limit)
		}
		if !reflect.DeepEqual(arranged, slices.Concat(sortByComparison(log)...)) {
			t.Errorf("%s: the arrangement and the oracle disagree", name)
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

// TestStrictBatchEqualsRecordLoop: AppendBatch calls of any runs — in
// order for whole chunks (which the store adopts instead of copying), with
// ties, broken by a record behind the topic's newest — on a topic in any
// state, with TruncateFrom and Expire in between, leave the records, every
// Scan, Len, Bounds, the accepted count and the error identical to
// appending the records one at a time. The batch store is given a clone:
// it owns, and writes into, what it is handed.
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
		if trial%3 > 0 {
			// A topic ending mid-chunk or exactly at a chunk boundary, or
			// in an adopted chunk full at a capacity of its own.
			n := chunkCap - 2 + rng.Intn(5)
			if trial%3 == 2 {
				n = chunkCap/2 + rng.Intn(chunkCap)
			}
			pre := make([]Record, n)
			for i := range pre {
				clock += int64(rng.Intn(3))
				pre[i] = Record{TemplateIdx: -1, ArrivalMs: clock}
			}
			both(func(s *Store) int { s.AppendBatch("t", slices.Clone(pre)); return 0 })
		}
		for round := 0; round <= trial%3; round++ {
			// A calm run is broken two hundred times less often: its
			// in-order stretches are chunks long.
			odds := 1000
			if rng.Intn(2) == 0 {
				odds = 200_000
			}
			run := make([]Record, 1+rng.Intn(3*chunkCap))
			for i := range run {
				if rng.Intn(odds) < 3 {
					clock -= 1 + int64(rng.Intn(100)) // behind the newest: ends the batch
				} else {
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
				clock = newest.ArrivalMs // a refused record left the clock behind the topic
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
			if bt.size != lt.size || !slices.Equal(bt.flatten(), lt.flatten()) || batch.Len("t") != loop.Len("t") {
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
				if !slices.Equal(scanAll(batch, "t", from, to), scanAll(loop, "t", from, to)) {
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
