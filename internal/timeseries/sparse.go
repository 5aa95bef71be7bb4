package timeseries

import "slices"

// Sparse is a series of length N held as its nonzero entries: entry Idx[k]
// is Val[k], Idx strictly ascending and below N, every entry not listed +0.
// A template's estimated active session (§IV-C) is one — most templates are
// logged in a few percent of a window's seconds. A sum that starts at +0
// never becomes −0, so adding a ±0 never changes it: every sum over a
// Sparse skips exactly the addends that are zero and has the bits of the
// sum over the dense series. A Sparse is read-only once built.
type Sparse struct {
	N   int
	Idx []int32
	Val []float64
}

// SparseOf returns s as its nonzero entries; NaN is one, −0 is not.
func SparseOf(s Series) Sparse {
	nnz := 0
	for _, v := range s {
		if v != 0 {
			nnz++
		}
	}
	x := Sparse{N: len(s), Idx: make([]int32, 0, nnz), Val: make([]float64, 0, nnz)}
	for i, v := range s {
		if v != 0 {
			x.Idx, x.Val = append(x.Idx, int32(i)), append(x.Val, v)
		}
	}
	return x
}

// RangeSum returns the sum of entries [lo, hi), the range clamped to the
// series as Series.Slice clamps it.
func (x Sparse) RangeSum(lo, hi int) float64 {
	lo, hi = max(lo, 0), min(hi, x.N)
	if lo >= hi {
		return 0
	}
	k, _ := slices.BinarySearch(x.Idx, int32(lo))
	var sum float64
	for ; k < len(x.Idx) && int(x.Idx[k]) < hi; k++ {
		sum += x.Val[k]
	}
	return sum
}

// AddTo adds x to dst entry by entry, over the shorter of the two.
func (x Sparse) AddTo(dst Series) {
	for k, i := range x.Idx {
		if int(i) >= len(dst) {
			return
		}
		dst[i] += x.Val[k]
	}
}

// scatter writes x's nonzero entries into dst, which has N zeros; unscatter
// zeroes them again.
func (x Sparse) scatter(dst Series) {
	for k, i := range x.Idx {
		dst[i] = x.Val[k]
	}
}

func (x Sparse) unscatter(dst Series) {
	for _, i := range x.Idx {
		dst[i] = 0
	}
}
