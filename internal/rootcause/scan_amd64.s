#include "textflag.h"

// func panelPrefix16(row, panels *float64, length, k int, tails *float64, reach, floor float64, sums *[16]float64) uint
//
// It sums the products of a row (element i at row[4i]) with the sixteen
// columns of the four panels from panels, length elements a column, over
// the first k > 0 elements into sums, and returns a bit per column, set
// unless sum + reach·tails[j] < floor: a NaN keeps its pair. Y0–Y3 hold
// the four panels' sums. Each element of the row is broadcast, multiplied
// with a panel row and added to its sums — a multiply, then an add, each
// rounded, never fused — so every lane sums in dot's order with dot's
// roundings, and has prefix16's bits.
TEXT ·panelPrefix16(SB), NOSPLIT, $0-72
	MOVQ row+0(FP), SI
	MOVQ panels+8(FP), DI
	MOVQ length+16(FP), R8
	SHLQ $5, R8            // bytes from one panel to the next: 4·length·8
	LEAQ (R8)(R8*2), R9    // and from the first to the fourth
	MOVQ k+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop:
	VBROADCASTSD (SI), Y4
	VMULPD       (DI), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       (DI)(R8*1), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       (DI)(R8*2), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       (DI)(R9*1), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop

	MOVQ    sums+56(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)

	// Survivors: !(sum + reach·tail < floor), NLT_US, true for a NaN.
	MOVQ         tails+32(FP), AX
	VBROADCASTSD reach+40(FP), Y4
	VBROADCASTSD floor+48(FP), Y5
	VMULPD       (AX), Y4, Y6
	VADDPD       Y6, Y0, Y0
	VCMPPD       $5, Y5, Y0, Y0
	VMULPD       32(AX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VCMPPD       $5, Y5, Y1, Y1
	VMULPD       64(AX), Y4, Y6
	VADDPD       Y6, Y2, Y2
	VCMPPD       $5, Y5, Y2, Y2
	VMULPD       96(AX), Y4, Y6
	VADDPD       Y6, Y3, Y3
	VCMPPD       $5, Y5, Y3, Y3

	VMOVMSKPD Y0, DX
	VMOVMSKPD Y1, BX
	SHLQ      $4, BX
	ORQ       BX, DX
	VMOVMSKPD Y2, BX
	SHLQ      $8, BX
	ORQ       BX, DX
	VMOVMSKPD Y3, BX
	SHLQ      $12, BX
	ORQ       BX, DX
	VZEROUPPER
	MOVQ      DX, ret+64(FP)
	RET
