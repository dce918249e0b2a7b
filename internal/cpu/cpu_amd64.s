#include "textflag.h"

// func cpuSupportsAVX2() bool
// CPUID feature probe: AVX2 requires OSXSAVE+AVX (leaf 1 ECX bits 27/28),
// OS-enabled XMM+YMM state (XCR0 bits 1/2), and leaf 7 EBX bit 5.
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE  noAVX2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noAVX2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   noAVX2
	MOVB $1, ret+0(FP)
	RET

noAVX2:
	MOVB $0, ret+0(FP)
	RET
