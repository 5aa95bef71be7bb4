package window

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
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
// shallow disorder, ties, reverse order and pile-ups that exhaust the move
// budget, the int64 ends — the paired insertion with its stable finisher
// leaves both columns bit for bit where the permutation sort does, the
// response column carried along whatever it holds.
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
		checkSortObsGroup(t, arrival, response)
	}
}

// checkSortObsGroup sorts a copy of the group both ways and fails on the
// first row where the columns' bits differ.
func checkSortObsGroup(t *testing.T, arrival []int64, response []float64) {
	t.Helper()
	gotA, gotR := slices.Clone(arrival), slices.Clone(response)
	wantA, wantR := slices.Clone(arrival), slices.Clone(response)
	sortObsGroup(gotA, gotR)
	sortObsGroupByPermutation(wantA, wantR)
	for i := range gotA {
		if gotA[i] != wantA[i] || math.Float64bits(gotR[i]) != math.Float64bits(wantR[i]) {
			t.Fatalf("n=%d: row %d = (%d, %#x), permutation sort has (%d, %#x)", len(gotA), i,
				gotA[i], math.Float64bits(gotR[i]), wantA[i], math.Float64bits(wantR[i]))
		}
	}
}

// FuzzSortObsGroup: any group sorts as the permutation sort does. Each
// observation is three bytes: arrival (two, little-endian, signed) and a
// response selector (one: below eight an odd bit pattern, else the row's
// own index, so a swapped tie shows). The seeds force each branch: reverse
// order exhausts the move budget and falls back, all ties move nothing,
// and one long response completing last moves once past the whole group.
func FuzzSortObsGroup(f *testing.F) {
	obs := func(n int, arrival func(i int) int16) []byte {
		data := make([]byte, 0, 3*n)
		for i := 0; i < n; i++ {
			a := uint16(arrival(i))
			data = append(data, byte(a), byte(a>>8), byte(8+i%248))
		}
		return data
	}
	f.Add([]byte{})
	f.Add(obs(300, func(i int) int16 { return int16(300 - i) }))
	f.Add(obs(300, func(i int) int16 { return 7 }))
	f.Add(obs(300, func(i int) int16 {
		if i == 299 {
			return 0
		}
		return int16(1 + i + i%5)
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 3
		arrival, response := make([]int64, n), make([]float64, n)
		for i := range arrival {
			arrival[i] = int64(int16(binary.LittleEndian.Uint16(data[3*i:])))
			response[i] = math.Float64frombits(uint64(i))
			if sel := data[3*i+2]; sel < 8 {
				response[i] = math.Float64frombits(oddFloats[sel])
			}
		}
		checkSortObsGroup(t, arrival, response)
	})
}

// TestSealGroupSortWorkBudget counts the moves the seal's group sort makes
// on fleet-shaped template groups rather than timing it: a window's 28
// groups of 1 600 arrivals spread evenly over 300 s (45 000 records),
// responses Exp·40 ms with one in eighty waiting up to 20 s on a lock, each
// group in completion order. Insertion must finish every group without
// falling back, at most one move per record over the window; reverse order
// must fall back. A seal that scattered in some other order than the log's,
// or a budget that never fired, shows here.
func TestSealGroupSortWorkBudget(t *testing.T) {
	const templates, n, spanMs = 28, 1600, 300_000
	rng := rand.New(rand.NewSource(7))
	budget := 4 * n * bits.Len(uint(n))
	type obs struct {
		arrival  int64
		response float64
	}
	group := make([]obs, n)
	arrival, response := make([]int64, n), make([]float64, n)
	total := 0
	for tmpl := 0; tmpl < templates; tmpl++ {
		for i := range group {
			resp := rng.ExpFloat64() * 40
			if rng.Intn(80) == 0 {
				resp = rng.Float64() * 20_000
			}
			group[i] = obs{int64(i) * spanMs / n, resp}
		}
		slices.SortStableFunc(group, func(a, b obs) int {
			return cmp.Compare(float64(a.arrival)+a.response, float64(b.arrival)+b.response)
		})
		for i, o := range group {
			arrival[i], response[i] = o.arrival, o.response
		}
		checkSortObsGroup(t, arrival, response)
		moves, done := insertObsGroup(arrival, response, budget)
		if !done {
			t.Fatalf("group %d: a completion-ordered group fell back after %d moves", tmpl, moves)
		}
		total += moves
	}
	if records := templates * n; total > records || total == 0 {
		t.Errorf("%d completion-ordered records took %d moves, budget one per record (and the fixture some)", records, total)
	}
	for i := range arrival {
		arrival[i] = int64(n - i)
	}
	if _, done := insertObsGroup(arrival, response, budget); done {
		t.Error("reverse order ran to the end of the insertion pass; the budget never fired")
	}
}
