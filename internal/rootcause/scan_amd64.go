package rootcause

// panelPrefix16 is prefix16 in AVX; scan_amd64.s says how it keeps its bits.
//
//go:noescape
func panelPrefix16(row, panels *float64, length, k int, tails *float64, reach, floor float64, sums *[16]float64) uint
