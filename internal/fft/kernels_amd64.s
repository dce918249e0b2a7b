// AVX2 float64 kernels for the power-of-two Plan (see kernels.go for the
// dispatch and the pass-table layout). One YMM register holds two
// complex128 values [re0 im0 re1 im1]; every kernel performs, per complex
// value, exactly the operations of the scalar loop in (*Plan).transform in
// the same order — a complex product is two VMULPD and one VADDSUBPD
// (re = ar·br − ai·bi, im = ai·br + ar·bi), a butterfly is VADDPD/VSUBPD —
// and uses no fused multiply-add, so with the compiler's unfused amd64
// arithmetic the results are bit-identical to the scalar path. Twiddles
// that are exactly 1 or −i are still multiplied, never special-cased:
// that keeps signed zeros and the inexact cos(π/2) where the scalar code
// puts them.

#include "textflag.h"

// CMUL multiplies the two complex values of x by the twiddle whose real
// parts are duplicated in wr and imaginary parts in wi; t is scratch.
#define CMUL(x, wr, wi, t) \
	VPERMILPD $5, x, t; \
	VMULPD    wr, x, x; \
	VMULPD    wi, t, t; \
	VADDSUBPD t, x, x

// QUAD runs one fused stage pair on Y0..Y3 = x[i0], x[i1], x[i2], x[i3]
// with wA in Y10/Y11, tw[j·stepB] in Y12/Y13 and tw[(j+h)·stepB] in
// Y14/Y15, leaving the four results in Y0..Y3 (same index order):
// v0 = x[i1]·wA, v2 = x[i3]·wA, y0/y1 = u0 ± v0 (Y4/Y5), u2 ± v2 (Y6/Y7),
// t2 and t3 their twiddled values, outputs y0 ± t2 and y1 ± t3.
#define QUAD \
	CMUL(Y1, Y10, Y11, Y4); \
	CMUL(Y3, Y10, Y11, Y5); \
	VADDPD Y1, Y0, Y4;      \
	VSUBPD Y1, Y0, Y5;      \
	VADDPD Y3, Y2, Y6;      \
	VSUBPD Y3, Y2, Y7;      \
	CMUL(Y6, Y12, Y13, Y0); \
	CMUL(Y7, Y14, Y15, Y1); \
	VADDPD Y6, Y4, Y0;      \
	VSUBPD Y6, Y4, Y2;      \
	VADDPD Y7, Y5, Y1;      \
	VSUBPD Y7, Y5, Y3

// FIRSTTW broadcasts the first pass's three twiddles (tw[0], tw[0],
// tw[n/4], stored as three complex128 at SI) into Y10..Y15.
#define FIRSTTW \
	VBROADCASTSD 0(SI), Y10;  \
	VBROADCASTSD 8(SI), Y11;  \
	VBROADCASTSD 16(SI), Y12; \
	VBROADCASTSD 24(SI), Y13; \
	VBROADCASTSD 32(SI), Y14; \
	VBROADCASTSD 40(SI), Y15

// func passAVX2(x, tw *complex128, n, h int)
// One fused stage pair (stages size = 2h and 4h) for h >= 2, in place. tw
// holds, per pair of adjacent j, the six twiddles wA[j], wA[j+1],
// tw[j·stepB], tw[(j+1)·stepB], tw[(j+h)·stepB], tw[(j+1+h)·stepB]. The
// twiddles of a j pair are loaded once and swept across every block.
TEXT ·passAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ tw+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ h+24(FP), DX
	SHLQ $4, CX            // n in bytes
	ADDQ DI, CX            // end of x
	SHLQ $4, DX            // h in bytes: i0 → i1
	LEAQ (DX)(DX*2), R8    // 3h: i0 → i3
	LEAQ (DX*4), R9        // 4h: block stride
	XORQ AX, AX            // j in bytes

passJ:
	VMOVDDUP  0(SI), Y10
	VPERMILPD $15, 0(SI), Y11
	VMOVDDUP  32(SI), Y12
	VPERMILPD $15, 32(SI), Y13
	VMOVDDUP  64(SI), Y14
	VPERMILPD $15, 64(SI), Y15
	ADDQ      $96, SI
	LEAQ      (DI)(AX*1), BX

passBlock:
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(DX*1), Y1
	VMOVUPD (BX)(DX*2), Y2
	VMOVUPD (BX)(R8*1), Y3
	QUAD
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(DX*1)
	VMOVUPD Y2, (BX)(DX*2)
	VMOVUPD Y3, (BX)(R8*1)
	ADDQ    R9, BX
	CMPQ    BX, CX
	JB      passBlock
	ADDQ    $32, AX
	CMPQ    AX, DX
	JB      passJ
	VZEROUPPER
	RET

// func first4GatherAVX2(dst, src *complex128, rev *int, tw *complex128, n int)
// Bit-reversal gather fused with the first stage pair (h = 1) for an even
// stage count. Output block b (dst[4b:4b+4]) reads src[r], src[r+n/2],
// src[r+n/4], src[r+3n/4] with r the bit reversal of b, so two adjacent r
// fill the two lanes of each register straight from memory; the results
// are transposed into the whole 64-byte blocks at dst[rev[r]] and
// dst[rev[r+1]].
TEXT ·first4GatherAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), BX
	MOVQ rev+16(FP), R10
	MOVQ tw+24(FP), SI
	MOVQ n+32(FP), DX
	SHLQ $2, DX            // n/4 in bytes
	LEAQ (DX)(DX*2), R8    // 3n/4
	LEAQ (BX)(DX*1), CX    // end of the first quarter of src
	FIRSTTW

gather4:
	VMOVUPD    (BX), Y0
	VMOVUPD    (BX)(DX*2), Y1
	VMOVUPD    (BX)(DX*1), Y2
	VMOVUPD    (BX)(R8*1), Y3
	QUAD
	MOVQ       0(R10), R11
	MOVQ       8(R10), R12
	SHLQ       $4, R11
	SHLQ       $4, R12
	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x20, Y3, Y2, Y5
	VPERM2F128 $0x31, Y1, Y0, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	VMOVUPD    Y4, 0(DI)(R11*1)
	VMOVUPD    Y5, 32(DI)(R11*1)
	VMOVUPD    Y6, 0(DI)(R12*1)
	VMOVUPD    Y7, 32(DI)(R12*1)
	ADDQ       $16, R10
	ADDQ       $32, BX
	CMPQ       BX, CX
	JB         gather4
	VZEROUPPER
	RET

// func first4AVX2(x, tw *complex128, n int)
// The first stage pair (h = 1) in place on already bit-reversed data: two
// adjacent 4-element blocks are transposed into the lane-per-block layout
// of first4GatherAVX2, run through the same arithmetic and transposed back.
TEXT ·first4AVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ tw+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $4, CX
	ADDQ DI, CX
	FIRSTTW

inplace4:
	VMOVUPD    0(DI), Y4
	VMOVUPD    32(DI), Y5
	VMOVUPD    64(DI), Y6
	VMOVUPD    96(DI), Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x31, Y6, Y4, Y1
	VPERM2F128 $0x20, Y7, Y5, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	QUAD
	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x20, Y3, Y2, Y5
	VPERM2F128 $0x31, Y1, Y0, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	VMOVUPD    Y4, 0(DI)
	VMOVUPD    Y5, 32(DI)
	VMOVUPD    Y6, 64(DI)
	VMOVUPD    Y7, 96(DI)
	ADDQ       $128, DI
	CMPQ       DI, CX
	JB         inplace4
	VZEROUPPER
	RET

// func first2GatherAVX2(dst, src *complex128, rev *int, n int)
// Bit-reversal gather fused with the twiddle-free size-2 stage an odd stage
// count peels: dst[2b], dst[2b+1] = src[r] ± src[r+n/2] with r the bit
// reversal of b; two adjacent r per iteration, results stored as the pairs
// at dst[rev[r]] and dst[rev[r+1]].
TEXT ·first2GatherAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), BX
	MOVQ rev+16(FP), R10
	MOVQ n+24(FP), DX
	SHLQ $3, DX            // n/2 in bytes
	LEAQ (BX)(DX*1), CX    // end of the first half of src

gather2:
	VMOVUPD    (BX), Y0
	VMOVUPD    (BX)(DX*1), Y1
	VADDPD     Y1, Y0, Y2
	VSUBPD     Y1, Y0, Y3
	MOVQ       0(R10), R11
	MOVQ       8(R10), R12
	SHLQ       $4, R11
	SHLQ       $4, R12
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPD    Y4, (DI)(R11*1)
	VMOVUPD    Y5, (DI)(R12*1)
	ADDQ       $16, R10
	ADDQ       $32, BX
	CMPQ       BX, CX
	JB         gather2
	VZEROUPPER
	RET

// func first2AVX2(x *complex128, n int)
// The peeled size-2 stage in place on already bit-reversed data.
TEXT ·first2AVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHLQ $4, CX
	ADDQ DI, CX

inplace2:
	VMOVUPD    0(DI), Y4
	VMOVUPD    32(DI), Y5
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VADDPD     Y1, Y0, Y2
	VSUBPD     Y1, Y0, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPD    Y4, 0(DI)
	VMOVUPD    Y5, 32(DI)
	ADDQ       $64, DI
	CMPQ       DI, CX
	JB         inplace2
	VZEROUPPER
	RET
