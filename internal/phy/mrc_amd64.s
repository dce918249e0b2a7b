// AVX2 float64 pass in of the fused demodulator (see demodFused in rx.go).
// One YMM register holds two subcarriers [re_k im_k re_k+1 im_k+1]; the
// operations per subcarrier are those of demodSymbol's scalar loops in the
// same order — the product conj(h)·y as two VMULPD and one VADDSUBPD, |h|²
// as one VMULPD and a VHADDPD of the two parts in order, the antennas
// accumulated from 0 up — and nothing is fused, so the bits match.

#include "textflag.h"

DATA negim<>+0(SB)/8, $0
DATA negim<>+8(SB)/8, $0x8000000000000000
DATA negim<>+16(SB)/8, $0
DATA negim<>+24(SB)/8, $0x8000000000000000
GLOBL negim<>(SB), RODATA|NOPTR, $32

DATA clamp<>+0(SB)/8, $0x3d719799812dea11
DATA clamp<>+8(SB)/8, $0x3d719799812dea11
DATA clamp<>+16(SB)/8, $0x3d719799812dea11
DATA clamp<>+24(SB)/8, $0x3d719799812dea11
GLOBL clamp<>(SB), RODATA|NOPTR, $32

DATA one<>+0(SB)/8, $0x3ff0000000000000
DATA one<>+8(SB)/8, $0x3ff0000000000000
DATA one<>+16(SB)/8, $0x3ff0000000000000
DATA one<>+24(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $32

// ANTENNA loads the channel row (BX) and grid row (DX) at subcarrier
// offset AX and leaves conj(h)·y in Y8 and |h|² (duplicated over each
// complex) in Y9.
#define ANTENNA \
	VMOVUPD   (BX)(AX*1), Y0; \
	VMOVUPD   (DX)(AX*1), Y1; \
	VMOVDDUP  Y1, Y6;         \
	VPERMILPD $15, Y1, Y7;    \
	VXORPD    Y13, Y0, Y8;    \
	VPERMILPD $5, Y8, Y9;     \
	VMULPD    Y6, Y8, Y8;     \
	VMULPD    Y7, Y9, Y9;     \
	VADDSUBPD Y9, Y8, Y8;     \
	VMULPD    Y0, Y0, Y9;     \
	VHADDPD   Y9, Y9, Y9

// ROWS points BX at h[a] and DX at grid[a][l] for the slice-header offset
// R11 = a·24 (R9 = l·24).
#define ROWS \
	MOVQ (SI)(R11*1), BX; \
	MOVQ (R8)(R11*1), DX; \
	MOVQ (DX)(R9*1), DX

// func mrcConjAVX2(in *complex128, h *[]complex128, grid *[][]complex128, l, antennas, pairs int) float64
TEXT ·mrcConjAVX2(SB), NOSPLIT, $0-56
	MOVQ   in+0(FP), DI
	MOVQ   h+8(FP), SI
	MOVQ   grid+16(FP), R8
	MOVQ   l+24(FP), R9
	LEAQ   (R9)(R9*2), R9
	SHLQ   $3, R9
	MOVQ   antennas+32(FP), R10
	MOVQ   pairs+40(FP), CX
	XORQ   AX, AX
	VXORPD X12, X12, X12
	VMOVUPD negim<>(SB), Y13
	VMOVUPD clamp<>(SB), Y14
	VMOVUPD one<>(SB), Y15

subcarrier:
	XORQ    R11, R11
	ROWS
	ANTENNA
	VMOVUPD Y8, Y2
	VMOVUPD Y9, Y3
	MOVQ    R10, R12
	DECQ    R12
	JZ      reciprocal

antenna:
	ADDQ   $24, R11
	ROWS
	ANTENNA
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	DECQ   R12
	JNZ    antenna

reciprocal:
	// d = 1e-12 when d < 1e-12 (NaN stays), inv = 1/d, in = conj(eq·inv).
	VMAXPD       Y3, Y14, Y3
	VDIVPD       Y3, Y15, Y3
	VMULPD       Y3, Y2, Y2
	VXORPD       Y13, Y2, Y2
	VMOVUPD      Y2, (DI)(AX*1)
	VADDSD       X3, X12, X12
	VEXTRACTF128 $1, Y3, X4
	VADDSD       X4, X12, X12
	ADDQ         $32, AX
	DECQ         CX
	JNZ          subcarrier
	VZEROUPPER
	MOVSD        X12, ret+48(FP)
	RET
