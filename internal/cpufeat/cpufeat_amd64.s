#include "textflag.h"

// func maxLeaf() uint32
TEXT ·maxLeaf(SB), NOSPLIT, $0-4
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, ret+0(FP)
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func cpuid7EBX() uint32
TEXT ·cpuid7EBX(SB), NOSPLIT, $0-4
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
