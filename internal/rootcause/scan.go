package rootcause

import (
	"math"
	"math/bits"
	"slices"

	"pinsql/internal/cpufeat"
	"pinsql/internal/timeseries"
)

// minutes is the length of perMinute's vector for a series of n seconds.
func minutes(n int) int { return max(n/clusterGranularitySec, min(n, 1)) }

// perMinute writes into buf's storage the per-minute sums of s, a trailing
// partial minute of r seconds folded into the last full one at the rate,
// (last + leftover)·60/(60 + r): a short minute would dip in every count
// series at once and correlate every pair of unrelated templates.
func perMinute(buf []float64, s timeseries.Series) []float64 {
	const g = clusterGranularitySec
	v := s.DownsampleInto(buf, g)
	if full, r := len(s)/g, len(s)%g; full > 0 && r > 0 {
		v[full-1] = (v[full-1] + v[full]) * g / float64(g+r)
		v = v[:full]
	}
	return v
}

// standardize centers s and scales it to unit norm in place, returning it,
// or returns nil for a (near-)constant series, which cannot carry trend
// information.
func standardize(s timeseries.Series) []float64 {
	m := s.Mean()
	var norm float64
	for i, v := range s {
		d := v - m
		s[i] = d
		norm += d * d
	}
	if norm <= 1e-18*float64(len(s))*(m*m+1) {
		return nil
	}
	inv := 1 / math.Sqrt(norm)
	for i := range s {
		s[i] *= inv
	}
	return s
}

// The pair scan abandons a pair once it cannot be an edge: with the first
// k elements of the dot product of unit vectors a and b summed to s, what
// is left is at most ‖a[k:]‖·‖b[k:]‖ (Cauchy–Schwarz). The test is made
// once, at the checkpoint, with the bound inflated and τ lowered by
// pruneSlack; what is rounded on the way is off by a few n·1.2e-16 for
// n-element unit vectors, under a third of the slack at pruneMaxLen, so a
// pair is only abandoned when its finished score is below τ by far more
// than rounding could bridge. Vectors shorter than pruneMinLen are summed
// without a checkpoint (too little is left to save), and so are vectors
// longer than pruneMaxLen (two years of minutes), past the slack's argument.
const (
	pruneSlack  = 1e-9
	pruneMinLen = 10
	pruneMaxLen = 1 << 20
)

// pairScan is the τ-graph's n live, standardized columns and what the scan
// needs to abandon pairs early. Columns of one length (a frame's) sit in
// panels of four, element i of columns 4p…4p+3 at panel[4p·length+4i…],
// and three panels of zeros follow so a row is always scored against
// sixteen columns; columns of unequal lengths are kept a slice each, in
// ragged, and summed in full. Pairs are tested after checkpoint elements,
// 9/20 of the length (earlier lets too many through on the wide case, later
// saves too little) or 0 for none; tails[c] is column c's norm from there
// on. kernel takes panelPrefix16 for its oracle, prefix16.
type pairScan struct {
	tau                   float64
	n, length, checkpoint int
	panel, tails          []float64
	ragged                [][]float64
	kernel                bool
}

// newPairScan lays out n columns, column c of length(c) elements, for set.
func newPairScan(n int, length func(c int) int, tau float64) *pairScan {
	ps := &pairScan{tau: tau, kernel: cpufeat.AVX}
	for c := range n {
		if length(c) != length(0) {
			ps.ragged = make([][]float64, n)
			return ps
		}
		ps.length = length(c)
	}
	ps.panel = make([]float64, ((n+3)/4+3)*4*ps.length)
	return ps
}

// column is column c of the panel: its element i is column(c)[4i].
func (ps *pairScan) column(c int) []float64 {
	return ps.panel[c/4*4*ps.length+c%4:]
}

// set writes column c. Different columns may be set concurrently.
func (ps *pairScan) set(c int, v []float64) {
	if ps.ragged != nil {
		ps.ragged[c] = slices.Clone(v)
		return
	}
	col := ps.column(c)
	for i, x := range v {
		col[4*i] = x
	}
}

// compact moves the alive columns down over the others, in order, returns
// the index each was set at, and takes the checkpoint and the tails.
func (ps *pairScan) compact(alive []bool) []int {
	live := make([]int, 0, len(alive))
	for c, ok := range alive {
		if !ok {
			continue
		}
		to := len(live)
		live = append(live, c)
		if ps.ragged != nil {
			ps.ragged[to] = ps.ragged[c]
			continue
		}
		dst, src := ps.column(to), ps.column(c)
		for i := 0; i < ps.length; i++ {
			dst[4*i] = src[4*i]
		}
	}
	ps.n = len(live)
	L := ps.length
	if ps.ragged != nil || L < pruneMinLen || L > pruneMaxLen {
		return live
	}
	ps.checkpoint = L * 9 / 20
	ps.tails = make([]float64, len(ps.panel)/L)
	for c := range ps.n {
		col := ps.column(c)
		var sq float64
		for i := ps.checkpoint; i < L; i++ {
			sq += col[4*i] * col[4*i]
		}
		ps.tails[c] = math.Sqrt(sq)
	}
	return live
}

// rowEdges appends to edges every column c > r whose dot product with row r
// exceeds tau, in ascending c, and returns the multiply-adds it spent.
// Sixteen columns at a time are summed to the checkpoint, and a pair that
// could still exceed tau continues its sum over the rest in order: every
// sum compared with tau has dot's bits.
func (ps *pairScan) rowEdges(r int, edges []int32) ([]int32, int64) {
	var mulAdds int64
	if ps.ragged != nil {
		a := ps.ragged[r]
		for c := r + 1; c < ps.n; c++ {
			mulAdds += int64(min(len(a), len(ps.ragged[c])))
			if dot(a, ps.ragged[c]) > ps.tau {
				edges = append(edges, int32(c))
			}
		}
		return edges, mulAdds
	}
	L, k, row := ps.length, ps.checkpoint, ps.column(r)
	// What a pair must reach at the checkpoint, and how far row r's tail
	// can still carry it per unit of the column's.
	floor, reach := ps.tau-pruneSlack, 0.0
	if k > 0 {
		reach = ps.tails[r] * (1 + pruneSlack)
	}
	var sums [16]float64
	for c0 := (r + 1) &^ 3; c0 < ps.n; c0 += 16 {
		mask := uint(1<<16 - 1)
		switch {
		case k == 0:
			sums = [16]float64{}
		case ps.kernel:
			mask = panelPrefix16(&row[0], &ps.panel[c0*L], L, k, &ps.tails[c0], reach, floor, &sums)
		default:
			mask = ps.prefix16(row, c0, reach, floor, &sums)
		}
		// Of the sixteen, columns r+1 … n−1 are row r's pairs.
		lo, hi := max(r+1-c0, 0), min(ps.n-c0, 16)
		mulAdds += int64(hi-lo) * int64(k)
		for mask &= 1<<hi - 1<<lo; mask != 0; mask &= mask - 1 {
			j := bits.TrailingZeros(mask)
			col, s := ps.column(c0+j), sums[j]
			for i := k; i < L; i++ {
				s += row[4*i] * col[4*i]
			}
			mulAdds += int64(L - k)
			if s > ps.tau {
				edges = append(edges, int32(c0+j))
			}
		}
	}
	return edges, mulAdds
}

// prefix16 sums row's products with columns c0…c0+15 (c0 a multiple of 4)
// over the first checkpoint elements into sums, each in dot's order, two
// panels' eight at once, and returns a bit per column, set unless
// sum + reach·tail < floor: a NaN keeps its pair.
func (ps *pairScan) prefix16(row []float64, c0 int, reach, floor float64, sums *[16]float64) (mask uint) {
	for q := 0; q < 16; q += 8 {
		b := ps.panel[(c0+q)*ps.length:][:4*ps.checkpoint]
		c, a := ps.panel[(c0+q+4)*ps.length:][:len(b)], row[:len(b)]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i := 0; i+3 < len(b); i += 4 {
			v := a[i]
			s0, s1, s2, s3 = s0+v*b[i], s1+v*b[i+1], s2+v*b[i+2], s3+v*b[i+3]
			s4, s5, s6, s7 = s4+v*c[i], s5+v*c[i+1], s6+v*c[i+2], s7+v*c[i+3]
		}
		for j, s := range [8]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			if sums[q+j] = s; !(s+reach*ps.tails[c0+q+j] < floor) {
				mask |= 1 << (q + j)
			}
		}
	}
	return mask
}

func dot(a, b []float64) float64 {
	n := min(len(a), len(b))
	var acc float64
	for i := 0; i < n; i++ {
		acc += a[i] * b[i]
	}
	return acc
}
