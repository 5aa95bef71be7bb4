//go:build !amd64

package rootcause

func panelPrefix16(row, panels *float64, length, k int, tails *float64, reach, floor float64, sums *[16]float64) uint {
	panic("rootcause: no pair-scan kernel on this architecture")
}
