package logstore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Order restoration. A loosely appended topic holds its records in log
// order — completion order — which is arrival order disturbed shallowly:
// most records sit within a few positions of where they belong once the
// topic is split by arrival second. The contract is the stable sort's:
// ascending ArrivalMs, ties in insertion order. The work is proportional to
// the disorder: a stable distribution over arrival seconds, then an
// insertion pass inside each second. Insertion moves a record only past
// strictly later arrivals, so it never reorders a tie, and any state it
// leaves behind is one a stable comparison sort finishes to the same
// result — which is what happens to a second whose insertion pass exceeds
// its move budget, keeping the worst case O(n log n).

// sparseSlack is how many more arrival seconds than records a topic may
// span and still be distributed; beyond it the offsets table would
// outweigh the records and the comparison sort takes the whole topic.
const sparseSlack = 1024

// moveBudget is the number of record moves an insertion pass over n records
// may spend before handing over to the comparison sort: a few times the
// moves that sort would make itself.
func moveBudget(n int) int { return 4 * n * bits.Len(uint(n)) }

func byArrival(a, b Record) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) }

// insertionSort sorts recs by arrival with ties in place, giving up as soon
// as it has moved more than budget records; done reports whether it
// finished. Either way recs is left a permutation that a stable sort by
// arrival takes to the stable sort of the original.
func insertionSort(recs []Record, budget int) (moves int, done bool) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		if r.ArrivalMs >= recs[i-1].ArrivalMs {
			continue
		}
		j := i
		for ; j > 0 && recs[j-1].ArrivalMs > r.ArrivalMs; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
		if moves += i - j; moves > budget {
			return moves, false
		}
	}
	return moves, true
}

// sortRun sorts one stretch of records that no record outside it belongs
// in: budgeted insertion, the comparison sort as finisher. It returns the
// insertion pass's moves.
func sortRun(recs []Record) int {
	moves, done := insertionSort(recs, moveBudget(len(recs)))
	if !done {
		slices.SortStableFunc(recs, byArrival)
	}
	return moves
}

// Work is what an arrangement cost, counted rather than timed: Reads is the
// records its passes visited, one per record per pass, Moves the records its
// insertion passes moved.
type Work struct{ Reads, Moves int }

// Arrange returns the records of a log — a chunk list in insertion order —
// in arrival order, ties in insertion order, and what that cost. The records
// are written once, into one new array that the returned runs are cut from
// (see cut; the array is released with the last of its runs). No run is
// empty, and only a log shorter than half a chunk yields a run that short.
// The log itself is left as it is.
//
// Arrange is two phases: it finds the log's bounds and counts its records
// per arrival second, then distributes them. A caller that kept those counts
// while it wrote the log enters at the second phase, ArrangeCounted.
func Arrange(log [][]Record) (runs [][]Record, work Work) {
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
		runs, work = sortWhole(log, size)
		work.Reads += size
		return runs, work
	}
	// next[s] is where second s's next record goes: counts, then running
	// offsets, then — once every record is placed — the end of each second.
	next := make([]int, seconds+1)
	for _, c := range log {
		for i := range c {
			next[second(&c[i], lo)+1]++
		}
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	runs, work = distribute(log, lo, next)
	work.Reads += 2 * size
	return runs, work
}

// ArrangeCounted is Arrange for a log whose writer counted as it wrote:
// every record arrives at or after lo, and counts[s] of them in the second
// [lo + 1000·s, lo + 1000·(s+1)) — none past the last. It returns Arrange's
// runs without reading the log for its bounds or its counts; counts is left
// as it is.
func ArrangeCounted(log [][]Record, lo int64, counts []int) (runs [][]Record, work Work) {
	next := make([]int, len(counts)+1)
	for s, n := range counts {
		next[s+1] = next[s] + n
	}
	if size := next[len(counts)]; len(counts) > size+sparseSlack {
		return sortWhole(log, size)
	}
	return distribute(log, lo, next)
}

// second is the arrival second of r after lo ≤ r.ArrivalMs.
func second(r *Record, lo int64) uint64 { return (uint64(r.ArrivalMs) - uint64(lo)) / 1000 }

// sortWhole arranges a log of size records too sparse to distribute: one
// copy, one comparison sort.
func sortWhole(log [][]Record, size int) ([][]Record, Work) {
	out := make([]Record, 0, size)
	for _, c := range log {
		out = append(out, c...)
	}
	slices.SortStableFunc(out, byArrival)
	return cutWhole(out), Work{Reads: size}
}

// distribute places each record of the log at next[its second], which holds
// the second's first free position in the new array and is advanced past it
// (placement), then restores arrival order inside every second (insertion).
func distribute(log [][]Record, lo int64, next []int) ([][]Record, Work) {
	seconds := len(next) - 1
	out := make([]Record, next[seconds])
	for _, c := range log {
		for i := range c {
			s := second(&c[i], lo)
			out[next[s]] = c[i]
			next[s]++
		}
	}
	work := Work{Reads: len(out)}
	from := 0
	for _, end := range next[:seconds] {
		if end-from > 1 {
			work.Moves += sortRun(out[from:end])
			work.Reads += end - from
		}
		from = end
	}
	return cutWhole(out), work
}

// cutWhole cuts an arranged array into its runs.
func cutWhole(out []Record) [][]Record {
	return cut(make([][]Record, 0, (len(out)+chunkCap-1)/chunkCap), out)
}

// restoreOrder rewrites a dirty topic in arrival order and marks it clean;
// it returns the moves Arrange made.
func (t *topicLog) restoreOrder() int {
	runs, work := Arrange(t.chunks)
	t.chunks, t.dirty = runs, false
	return work.Moves
}
