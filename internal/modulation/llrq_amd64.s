// AVX2 LLR quantizer (see QuantizeLLRsInto for the dispatch). Four float64
// LLRs per YMM register go through QuantizeLLR's operations in its order:
// the multiply by LLRQScale, the add of copysign(½, v) built with
// VANDPD/VORPD, the clamp to ±LLRQMax, a VCMPPD unordered mask that zeroes
// NaN lanes, and VCVTTPD2DQ, which truncates toward zero like Go's
// conversion; VPACKSSDW then narrows eight results to int16, exactly, since
// they already lie on the rail. Every operation rounds as the scalar code
// does (no fused multiply-add), so every output matches QuantizeLLR.

#include "textflag.h"

DATA qScale<>+0(SB)/8, $64.0
GLOBL qScale<>(SB), RODATA|NOPTR, $8

DATA qHalf<>+0(SB)/8, $0.5
GLOBL qHalf<>(SB), RODATA|NOPTR, $8

DATA qSign<>+0(SB)/8, $0x8000000000000000
GLOBL qSign<>(SB), RODATA|NOPTR, $8

DATA qRailHi<>+0(SB)/8, $8191.0
GLOBL qRailHi<>(SB), RODATA|NOPTR, $8

DATA qRailLo<>+0(SB)/8, $-8191.0
GLOBL qRailLo<>(SB), RODATA|NOPTR, $8

// QUANT4 quantizes the four LLRs at off(SI) into the four int32 lanes of
// out. Clobbers v, Y2, Y3.
#define QUANT4(off, v, out) \
	VMULPD      off(SI), Y10, v \ // v = x·64
	VANDPD      Y12, v, Y2      \
	VORPD       Y11, Y2, Y2     \ // copysign(½, v)
	VADDPD      Y2, v, v        \
	VCMPPD      $3, v, v, Y3    \ // unordered: v is NaN
	VMAXPD      Y14, v, v       \
	VMINPD      Y13, v, v       \ // clamp to ±LLRQMax
	VANDNPD     v, Y3, v        \ // NaN → 0
	VCVTTPD2DQY v, out

// func quantizeAVX2(dst *int16, src *float64, n int)
// Quantizes src[0:n] into dst[0:n]; n is a multiple of 8.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD qScale<>(SB), Y10
	VBROADCASTSD qHalf<>(SB), Y11
	VBROADCASTSD qSign<>(SB), Y12
	VBROADCASTSD qRailHi<>(SB), Y13
	VBROADCASTSD qRailLo<>(SB), Y14

loop:
	CMPQ      CX, $8
	JLT       done
	QUANT4(0, Y0, X0)
	QUANT4(32, Y1, X1)
	VPACKSSDW X1, X0, X0
	VMOVDQU   X0, (DI)
	ADDQ      $64, SI
	ADDQ      $16, DI
	SUBQ      $8, CX
	JMP       loop

done:
	VZEROUPPER
	RET
