package rootcause

// haveAVX is whether the CPU has AVX and the OS saves its registers:
// CPUID.1:ECX's OSXSAVE and AVX bits, then XCR0's SSE and AVX state bits.
var haveAVX = cpuid1ECX()&(1<<27|1<<28) == 1<<27|1<<28 && xgetbv0()&6 == 6

func cpuid1ECX() uint32
func xgetbv0() uint32

// panelPrefix16 is prefix16 in AVX; scan_amd64.s says how it keeps its bits.
//
//go:noescape
func panelPrefix16(row, panels *float64, length, k int, tails *float64, reach, floor float64, sums *[16]float64) uint
