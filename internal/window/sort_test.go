package window

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortObsGroupByPermutation is the group sort sortObsGroup replaced — a
// permutation through sort.SliceStable, applied to scratch copies of both
// columns — kept here as its oracle.
func sortObsGroupByPermutation(arrival []int64, response []float64) {
	perm := make([]int32, len(arrival))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool { return arrival[perm[i]] < arrival[perm[j]] })
	scratchA := append([]int64(nil), arrival...)
	scratchR := append([]float64(nil), response...)
	for i, p := range perm {
		arrival[i] = scratchA[p]
		response[i] = scratchR[p]
	}
}

// oddFloats are response bit patterns a careless pairing could lose or
// canonicalize: both infinities, quiet and signalling-range NaNs with
// payloads, negative zero.
var oddFloats = []uint64{
	0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
	0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000, 0,
}

// TestSortObsGroupMatchesPermutationSort: on groups of every shape —
// shallow disorder, ties, reverse order, pile-ups, the int64 ends — the
// paired stable sort leaves both columns bit for bit where the permutation
// sort does, the response column carried along whatever it holds.
func TestSortObsGroupMatchesPermutationSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := []func(i, n int) int64{
		func(i, n int) int64 { return int64(i)*10 - int64(rng.Intn(40)) }, // shallow
		func(i, n int) int64 { return int64(rng.Intn(8)) },                // mostly ties
		func(i, n int) int64 { return int64(n - i) },                      // reverse
		func(i, n int) int64 { return int64(n-i) / 3 },                    // reverse with ties
		func(i, n int) int64 { return rng.Int63n(1000) },                  // pile-up
		func(i, n int) int64 { return int64(rng.Uint64()) },               // full range, either sign
		func(i, n int) int64 { return []int64{math.MinInt64, 0, math.MaxInt64}[rng.Intn(3)] },
		func(i, n int) int64 { return int64(i) }, // already sorted
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		if trial >= 100 { // every shape at both sizes
			n = 500 + rng.Intn(3000)
		}
		shape := shapes[trial%len(shapes)]
		arrival, response := make([]int64, n), make([]float64, n)
		for i := range arrival {
			arrival[i] = shape(i, n)
			bits := uint64(i) // distinct, so a swapped tie shows
			if rng.Intn(5) == 0 {
				bits = oddFloats[rng.Intn(len(oddFloats))]
			}
			response[i] = math.Float64frombits(bits)
		}
		wantA, wantR := slices.Clone(arrival), slices.Clone(response)
		sortObsGroupByPermutation(wantA, wantR)
		sortObsGroup(arrival, response)
		for i := range arrival {
			if arrival[i] != wantA[i] || math.Float64bits(response[i]) != math.Float64bits(wantR[i]) {
				t.Fatalf("trial %d (n=%d): row %d = (%d, %#x), permutation sort has (%d, %#x)", trial, n, i,
					arrival[i], math.Float64bits(response[i]), wantA[i], math.Float64bits(wantR[i]))
			}
		}
	}
}
