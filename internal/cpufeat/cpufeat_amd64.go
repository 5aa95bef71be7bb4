package cpufeat

// AVX is whether the CPU has AVX and the OS saves its registers:
// CPUID.1:ECX's OSXSAVE and AVX bits, then XCR0's SSE and AVX state bits.
var AVX = avx()

// AVX2 is AVX and CPUID.(EAX=7,ECX=0):EBX's AVX2 bit, which also brings
// the 256-bit integer operations and the gathers.
var AVX2 = AVX && maxLeaf() >= 7 && cpuid7EBX()&(1<<5) != 0

func avx() bool {
	return cpuid1ECX()&(1<<27|1<<28) == 1<<27|1<<28 && xgetbv0()&6 == 6
}

func maxLeaf() uint32
func cpuid1ECX() uint32
func cpuid7EBX() uint32
func xgetbv0() uint32
