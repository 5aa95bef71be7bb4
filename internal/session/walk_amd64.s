#include "textflag.h"

// Both kernels take four observations a vector: arrivals a (int64) and
// responses r, and d = a − startMs. A lane whose d lies in range is
// converted exactly, 0 ≤ d < 2⁵² being an integer: its bits ORed into
// those of 2⁵², less 2⁵². qlo = d + startF is then float64(a) and
// qhi = qlo + r is the Go walk's sum. Each kernel uses only the operations
// the Go walk uses on the values it returns (adds, subtractions, a
// division, comparisons, never fused), and its other arithmetic is on
// integers below 2⁵², where every float operation is exact. A lane the
// kernel does not settle (out of range, a NaN or an end beyond its bucket
// or second) is handed back to the Go walk.

DATA magic<>+0(SB)/8, $0x4330000000000000 // 2⁵²
DATA magic<>+8(SB)/8, $0x4330000000000000
DATA magic<>+16(SB)/8, $0x4330000000000000
DATA magic<>+24(SB)/8, $0x4330000000000000
GLOBL magic<>(SB), RODATA|NOPTR, $32

DATA half<>+0(SB)/8, $0x3fe0000000000000 // 0.5
DATA half<>+8(SB)/8, $0x3fe0000000000000
DATA half<>+16(SB)/8, $0x3fe0000000000000
DATA half<>+24(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $32

DATA minusOne<>+0(SB)/8, $0xbff0000000000000 // -1.0
DATA minusOne<>+8(SB)/8, $0xbff0000000000000
DATA minusOne<>+16(SB)/8, $0xbff0000000000000
DATA minusOne<>+24(SB)/8, $0xbff0000000000000
GLOBL minusOne<>(SB), RODATA|NOPTR, $32

DATA allOnes<>+0(SB)/8, $-1 // int64 −1
DATA allOnes<>+8(SB)/8, $-1
DATA allOnes<>+16(SB)/8, $-1
DATA allOnes<>+24(SB)/8, $-1
GLOBL allOnes<>(SB), RODATA|NOPTR, $32

DATA thousand<>+0(SB)/8, $0x408f400000000000 // 1000.0
DATA thousand<>+8(SB)/8, $0x408f400000000000
DATA thousand<>+16(SB)/8, $0x408f400000000000
DATA thousand<>+24(SB)/8, $0x408f400000000000
GLOBL thousand<>(SB), RODATA|NOPTR, $32

DATA milli<>+0(SB)/8, $0x3f50624dd2f1a9fc // 0.001
DATA milli<>+8(SB)/8, $0x3f50624dd2f1a9fc
DATA milli<>+16(SB)/8, $0x3f50624dd2f1a9fc
DATA milli<>+24(SB)/8, $0x3f50624dd2f1a9fc
GLOBL milli<>(SB), RODATA|NOPTR, $32

// func bucketCells(arr *int64, resp *float64, n int, startMs, dLo, dHi int64, startF, bucketLen, perMs float64, cells *[walkChunk]int32, vals *[walkChunk]float64)
//
// For each of n observations it writes the (second, bucket) cell the
// observation's whole span lies in, or −1 where it cannot tell, and the
// value pass 1 adds to that cell. A lane is settled when dLo ≤ d < dHi and
// qhi ≤ the end of bucket g = ⌊d/bucketLen⌋, counted from the window's
// start: a bucket is a whole number of milliseconds that divides a second,
// so g is second·k + bucket, the cell's index. g is the truncation of
// (d + ½)·perMs, which lies at least ½/bucketLen from an integer, far more
// than the product's rounding error below 2³¹ cells. The span then meets
// bucket g alone, from qlo on (g·bucketLen ≤ d), so the Go walk's overlap
// is qhi − qlo when positive, else nothing; the value is that difference
// over bucketLen, or +0, which leaves a cell's non-negative total as it is.
TEXT ·bucketCells(SB), NOSPLIT, $0-88
	MOVQ arr+0(FP), SI
	MOVQ resp+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   cellsDone

	VPBROADCASTQ startMs+24(FP), Y15
	VPBROADCASTQ dLo+32(FP), Y14
	VPBROADCASTQ dHi+40(FP), Y13
	VBROADCASTSD startF+48(FP), Y12
	VBROADCASTSD bucketLen+56(FP), Y11
	VBROADCASTSD perMs+64(FP), Y10
	VADDPD       Y11, Y12, Y9         // startF + bucketLen
	MOVQ         cells+72(FP), R8
	MOVQ         vals+80(FP), R9

cellsLoop:
	VMOVDQU  (SI), Y0
	VPSUBQ   Y15, Y0, Y0              // d
	VPCMPGTQ Y0, Y14, Y1              // dLo > d
	VPCMPGTQ Y0, Y13, Y2              // dHi > d
	VPANDN   Y2, Y1, Y1               // in range: dHi > d and not dLo > d
	VPOR     magic<>(SB), Y0, Y0
	VSUBPD   magic<>(SB), Y0, Y0      // d, exact where in range
	VADDPD   Y12, Y0, Y3              // qlo
	VADDPD   (DI), Y3, Y4             // qhi
	VADDPD   half<>(SB), Y0, Y5
	VMULPD   Y10, Y5, Y5
	VROUNDPD $3, Y5, Y5               // g, truncated
	VMULPD   Y11, Y5, Y6
	VADDPD   Y9, Y6, Y6               // bucket g's end
	VCMPPD   $0x12, Y6, Y4, Y6        // qhi ≤ its end (LE_OQ: a NaN is not)
	VANDPD   Y1, Y6, Y6               // settled
	VSUBPD   Y3, Y4, Y7               // qhi − qlo
	VCMPPD   $0x1e, Y3, Y4, Y8        // qhi > qlo (GT_OQ)
	VDIVPD   Y11, Y7, Y7
	VANDPD   Y8, Y7, Y7
	VMOVUPD  Y7, (R9)
	VMOVUPD  minusOne<>(SB), Y2
	VBLENDVPD Y6, Y5, Y2, Y5          // settled ? g : −1
	VCVTTPD2DQY Y5, X5
	VMOVDQU  X5, (R8)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $16, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  cellsLoop

cellsDone:
	VZEROUPPER
	RET

// func periodMeets(arr *int64, resp *float64, n int, startMs, dHi int64, startF float64, periodLo *float64, periodLen float64) (meets, spans uint64)
//
// For each of n observations it makes accumulateFrame's decision: a lane
// with 0 ≤ d < dHi and qhi ≤ the end of its second sec = ⌊d/1000⌋ (the
// truncation of (d + ½)·0.001, as in bucketCells) takes the direct path;
// there it meets the second's period [lo, hi), lo = periodLo[sec] and
// hi = lo + periodLen, unless apart's qhi ≤ lo or qlo ≥ hi. Bit j of meets
// is set for lane j on the direct path that meets its period, bit j of
// spans for a lane not on it; the Go walk evaluates those lanes and skips
// the others, which add nothing.
TEXT ·periodMeets(SB), NOSPLIT, $0-80
	MOVQ arr+0(FP), SI
	MOVQ resp+8(FP), DI
	XORQ AX, AX                       // meets
	XORQ BX, BX                       // spans
	XORQ CX, CX                       // the next vector's first bit
	MOVQ n+16(FP), DX
	SHRQ $2, DX
	JZ   meetsDone

	VPBROADCASTQ startMs+24(FP), Y15
	VPBROADCASTQ dHi+32(FP), Y14
	VBROADCASTSD startF+40(FP), Y13
	MOVQ         periodLo+48(FP), R10
	VBROADCASTSD periodLen+56(FP), Y12
	VADDPD       thousand<>(SB), Y13, Y11 // startF + 1000

meetsLoop:
	VMOVDQU  (SI), Y0
	VPSUBQ   Y15, Y0, Y0              // d
	VPCMPGTQ allOnes<>(SB), Y0, Y1    // d > −1
	VPCMPGTQ Y0, Y14, Y2              // dHi > d
	VPAND    Y2, Y1, Y1               // in the window
	VPOR     magic<>(SB), Y0, Y0
	VSUBPD   magic<>(SB), Y0, Y0      // d, exact where in the window
	VADDPD   Y13, Y0, Y3              // qlo
	VADDPD   (DI), Y3, Y4             // qhi
	VADDPD   half<>(SB), Y0, Y5
	VMULPD   milli<>(SB), Y5, Y5
	VROUNDPD $3, Y5, Y5               // sec, truncated
	VMULPD   thousand<>(SB), Y5, Y6
	VADDPD   Y11, Y6, Y6              // the second's end
	VCMPPD   $0x12, Y6, Y4, Y6        // qhi ≤ its end (LE_OQ: a NaN is not)
	VANDPD   Y1, Y6, Y6               // on the direct path
	VANDPD   Y1, Y5, Y5               // sec in the window, else 0
	VCVTTPD2DQY Y5, X5
	VMOVD    X5, R12
	VPEXTRD  $1, X5, R13
	VMOVSD   (R10)(R12*8), X8
	VMOVHPD  (R10)(R13*8), X8, X8
	VPEXTRD  $2, X5, R12
	VPEXTRD  $3, X5, R13
	VMOVSD   (R10)(R12*8), X9
	VMOVHPD  (R10)(R13*8), X9, X9
	VINSERTF128 $1, X9, Y8, Y8        // lo = periodLo[sec]
	VADDPD   Y12, Y8, Y9              // hi
	VCMPPD   $0x12, Y8, Y4, Y8        // qhi ≤ lo
	VCMPPD   $0x1d, Y9, Y3, Y9        // qlo ≥ hi (GE_OQ)
	VORPD    Y9, Y8, Y8               // apart
	VANDNPD  Y6, Y8, Y8               // on the direct path and not apart

	VMOVMSKPD Y8, R12
	SHLQ      CX, R12
	ORQ       R12, AX
	VMOVMSKPD Y6, R13
	XORQ      $15, R13                // not on the direct path
	SHLQ      CX, R13
	ORQ       R13, BX
	ADDQ      $4, CX

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  meetsLoop

meetsDone:
	VZEROUPPER
	MOVQ AX, meets+64(FP)
	MOVQ BX, spans+72(FP)
	RET
