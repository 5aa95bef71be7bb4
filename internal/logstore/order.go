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

// Arrange returns the records of a log — a chunk list in insertion order —
// in arrival order, ties in insertion order, and the number of record moves
// its insertion passes made. The records are written once, into one new
// array that the returned runs are cut from (see cut; the array is released
// with the last of its runs). No run is empty, and only a log shorter than
// half a chunk yields a run that short. The log itself is left as it is.
func Arrange(log [][]Record) (runs [][]Record, moves int) {
	size := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, c := range log {
		size += len(c)
		for i := range c {
			lo, hi = min(lo, c[i].ArrivalMs), max(hi, c[i].ArrivalMs)
		}
	}
	// Unsigned subtraction is exact even when hi − lo overflows int64.
	second := func(r *Record) uint64 { return (uint64(r.ArrivalMs) - uint64(lo)) / 1000 }
	seconds := (uint64(hi)-uint64(lo))/1000 + 1

	out := make([]Record, size)
	if seconds > uint64(size)+sparseSlack {
		n := 0
		for _, c := range log {
			n += copy(out[n:], c)
		}
		slices.SortStableFunc(out, byArrival)
	} else {
		// next[s] is where second s's next record goes: counts, then
		// running offsets, then — once every record is placed — the end of
		// each second.
		next := make([]int, seconds+1)
		for _, c := range log {
			for i := range c {
				next[second(&c[i])+1]++
			}
		}
		for s := 1; s < len(next); s++ {
			next[s] += next[s-1]
		}
		for _, c := range log {
			for i := range c {
				s := second(&c[i])
				out[next[s]] = c[i]
				next[s]++
			}
		}
		from := 0
		for _, end := range next[:seconds] {
			if end-from > 1 {
				moves += sortRun(out[from:end])
			}
			from = end
		}
	}

	return cut(make([][]Record, 0, (size+chunkCap-1)/chunkCap), out), moves
}

// restoreOrder rewrites a dirty topic in arrival order and marks it clean;
// it returns Arrange's moves.
func (t *topicLog) restoreOrder() (moves int) {
	t.chunks, moves = Arrange(t.chunks)
	t.dirty = false
	return moves
}
