package impact

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestDescendingMatchesSliceStable holds slices.SortStableFunc with
// descending to sort.SliceStable with x > y as its less: the same order of
// the same elements, on values with many ties and NaNs, at lengths that end
// inside an insertion block of 20 and that take several merges.
func TestDescendingMatchesSliceStable(t *testing.T) {
	type elem struct {
		v   float64
		pos int
	}
	rng := rand.New(rand.NewSource(1))
	values := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, 1, -1, 2.5, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(200)
		want := make([]elem, n)
		for i := range want {
			want[i] = elem{values[rng.Intn(len(values))], i}
			if rng.Intn(4) == 0 {
				want[i].v = rng.NormFloat64()
			}
		}
		got := slices.Clone(want)
		sort.SliceStable(want, func(i, j int) bool { return want[i].v > want[j].v })
		slices.SortStableFunc(got, func(a, b elem) int { return descending(a.v, b.v) })
		for i := range want {
			if got[i].pos != want[i].pos {
				t.Fatalf("trial %d, n=%d: position %d holds element %d, sort.SliceStable put %d there", trial, n, i, got[i].pos, want[i].pos)
			}
		}
	}
}
