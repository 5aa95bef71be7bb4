package logstore

import (
	"cmp"
	"math/bits"
	"slices"
)

// Order restoration. A collector's window log holds its records in log
// order — completion order — which is arrival order disturbed shallowly:
// most records sit within a few positions of where they belong once the
// log is split by arrival second. The contract is the stable sort's:
// ascending ArrivalMs, ties in insertion order. The work is proportional to
// the disorder: a stable distribution over arrival seconds, then an
// insertion pass inside each second. Insertion moves a record only past
// strictly later arrivals, so it never reorders a tie, and any state it
// leaves behind is one a stable comparison sort finishes to the same
// result — which is what happens to a second whose insertion pass exceeds
// its move budget, keeping the worst case O(n log n).

// sparseSlack is how many more arrival seconds than records a log may span
// and still be distributed; beyond it the offsets table would outweigh the
// records and the comparison sort takes the whole log.
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

// ArrangeCounted returns the records of a log — a chunk list in insertion
// order — in arrival order, ties in insertion order, and what that cost.
// Its writer counted as it wrote: every record arrives at or after lo, and
// counts[s] of them in the second [lo + 1000·s, lo + 1000·(s+1)) — none
// past the last. The records are written once, into one new array,
// distributed over their seconds when the seconds fit a table and sorted
// whole when they do not. The log and counts are left as they are.
func ArrangeCounted(log [][]Record, lo int64, counts []int) (arranged []Record, work Work) {
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
func sortWhole(log [][]Record, size int) ([]Record, Work) {
	out := make([]Record, 0, size)
	for _, c := range log {
		out = append(out, c...)
	}
	slices.SortStableFunc(out, byArrival)
	return out, Work{Reads: size}
}

// distribute places each record of the log at next[its second], which holds
// the second's first free position in the new array and is advanced past it
// (placement), then restores arrival order inside every second (insertion).
func distribute(log [][]Record, lo int64, next []int) ([]Record, Work) {
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
	return out, work
}
