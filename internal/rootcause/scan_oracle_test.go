package rootcause

// The pair scan as it was before pairs were abandoned early: every pair of
// live columns multiplied out in full. It is the oracle the pruned scan's
// edge lists are held to.

// fullRowEdges appends to edges every column c > r whose dot product with
// row r exceeds tau, in ascending c, and returns the multiply-adds spent.
// Four columns are scored per iteration, each with its own accumulator over
// the same element order as dot.
func fullRowEdges(cols [][]float64, r int, tau float64, edges []int32) ([]int32, int64) {
	a := cols[r]
	var mulAdds int64
	c := r + 1
	for ; c+4 <= len(cols); c += 4 {
		b0, b1, b2, b3 := cols[c], cols[c+1], cols[c+2], cols[c+3]
		if len(b0) < len(a) || len(b1) < len(a) || len(b2) < len(a) || len(b3) < len(a) {
			break // a short column ends its sum early: leave the rest to dot
		}
		b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
		var s0, s1, s2, s3 float64
		for i, x := range a {
			s0 += x * b0[i]
			s1 += x * b1[i]
			s2 += x * b2[i]
			s3 += x * b3[i]
		}
		mulAdds += 4 * int64(len(a))
		for k, s := range [4]float64{s0, s1, s2, s3} {
			if s > tau {
				edges = append(edges, int32(c+k))
			}
		}
	}
	for ; c < len(cols); c++ {
		mulAdds += int64(min(len(a), len(cols[c])))
		if dot(a, cols[c]) > tau {
			edges = append(edges, int32(c))
		}
	}
	return edges, mulAdds
}
