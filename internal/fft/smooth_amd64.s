// AVX2 float64 combine passes for the mixed-radix smoothPlan (see
// kernels_amd64.go for the driver). A pass at one recursion level (radix r,
// sub-length m) runs, for every block of r·m outputs, the loop body of
// smoothPlan.forwardInto for two adjacent k per YMM register
// [re_k im_k re_k+1 im_k+1]: the twiddle products of rows q = 1…r−1, then
// the dft2/dft3/dft4/dft5 codelet with its adds, subtracts and constant
// multiplies in the order the Go code writes them. The twiddles of a k pair
// are the two adjacent entries tw[q·m+k], tw[q·m+k+1] of the level's table,
// so row q of tw sits at the same byte offset from tw as row q of x from x.
// Complex products are CMUL (two VMULPD and one VADDSUBPD); negations are
// sign-bit XORs; nothing is fused, so every bit matches the scalar code.

#include "textflag.h"

// Constants, four lanes each: the codelets' cos/sin values as their IEEE
// bits, and the mask that negates the imaginary parts.
DATA c3<>+0(SB)/8, $0xbfe0000000000000
DATA c3<>+8(SB)/8, $0xbfe0000000000000
DATA c3<>+16(SB)/8, $0xbfe0000000000000
DATA c3<>+24(SB)/8, $0xbfe0000000000000
GLOBL c3<>(SB), RODATA|NOPTR, $32

// [s3, −s3, s3, −s3]: swap(d)·this is dft3's rot = (imag(d)·s3, −real(d)·s3).
DATA s3rot<>+0(SB)/8, $0x3febb67ae8584caa
DATA s3rot<>+8(SB)/8, $0xbfebb67ae8584caa
DATA s3rot<>+16(SB)/8, $0x3febb67ae8584caa
DATA s3rot<>+24(SB)/8, $0xbfebb67ae8584caa
GLOBL s3rot<>(SB), RODATA|NOPTR, $32

DATA c51<>+0(SB)/8, $0x3fd3c6ef372fe950
DATA c51<>+8(SB)/8, $0x3fd3c6ef372fe950
DATA c51<>+16(SB)/8, $0x3fd3c6ef372fe950
DATA c51<>+24(SB)/8, $0x3fd3c6ef372fe950
GLOBL c51<>(SB), RODATA|NOPTR, $32

DATA s51<>+0(SB)/8, $0x3fee6f0e134454ff
DATA s51<>+8(SB)/8, $0x3fee6f0e134454ff
DATA s51<>+16(SB)/8, $0x3fee6f0e134454ff
DATA s51<>+24(SB)/8, $0x3fee6f0e134454ff
GLOBL s51<>(SB), RODATA|NOPTR, $32

DATA c52<>+0(SB)/8, $0xbfe9e3779b97f4a8
DATA c52<>+8(SB)/8, $0xbfe9e3779b97f4a8
DATA c52<>+16(SB)/8, $0xbfe9e3779b97f4a8
DATA c52<>+24(SB)/8, $0xbfe9e3779b97f4a8
GLOBL c52<>(SB), RODATA|NOPTR, $32

DATA s52<>+0(SB)/8, $0x3fe2cf2304755a5e
DATA s52<>+8(SB)/8, $0x3fe2cf2304755a5e
DATA s52<>+16(SB)/8, $0x3fe2cf2304755a5e
DATA s52<>+24(SB)/8, $0x3fe2cf2304755a5e
GLOBL s52<>(SB), RODATA|NOPTR, $32

DATA negim<>+0(SB)/8, $0
DATA negim<>+8(SB)/8, $0x8000000000000000
DATA negim<>+16(SB)/8, $0
DATA negim<>+24(SB)/8, $0x8000000000000000
GLOBL negim<>(SB), RODATA|NOPTR, $32

// CMUL multiplies the two complex values of x by the twiddles whose real
// parts are duplicated in wr and imaginary parts in wi; t is scratch.
#define CMUL(x, wr, wi, t) \
	VPERMILPD $5, x, t; \
	VMULPD    wr, x, x; \
	VMULPD    wi, t, t; \
	VADDSUBPD t, x, x

// TWMUL multiplies x by the twiddle pair at mem (Y13..Y15 scratch).
#define TWMUL(x, mem) \
	VMOVDDUP  mem, Y13;      \
	VPERMILPD $15, mem, Y14; \
	CMUL(x, Y13, Y14, Y15)

// ROTNEG turns x into −i·x = (imag(x), −real(x)).
#define ROTNEG(x) \
	VPERMILPD $5, x, x; \
	VXORPD    negim<>(SB), x, x

// DFT3 is dft3 on Y0..Y2, outputs in Y0..Y2.
#define DFT3 \
	VADDPD    Y2, Y1, Y3;            \
	VSUBPD    Y2, Y1, Y4;            \
	VPERMILPD $5, Y4, Y4;            \
	VMULPD    s3rot<>(SB), Y4, Y4;   \
	VMULPD    c3<>(SB), Y3, Y5;      \
	VADDPD    Y5, Y0, Y5;            \
	VADDPD    Y3, Y0, Y0;            \
	VADDPD    Y4, Y5, Y1;            \
	VSUBPD    Y4, Y5, Y2

// DFT4 is dft4 on Y0..Y3, outputs in Y0..Y3.
#define DFT4 \
	VADDPD Y2, Y0, Y4; \
	VSUBPD Y2, Y0, Y5; \
	VADDPD Y3, Y1, Y6; \
	VSUBPD Y3, Y1, Y7; \
	ROTNEG(Y7);        \
	VADDPD Y6, Y4, Y0; \
	VADDPD Y7, Y5, Y1; \
	VSUBPD Y6, Y4, Y2; \
	VSUBPD Y7, Y5, Y3

// DFT5 is dft5 on Y0..Y4, outputs in Y9 (out[0]) and Y1..Y4. With
// t1, d1, t2, d2 in Y5..Y8: out[0] = (y0+t1)+t2; a1 = y0 + (c51·t1 +
// c52·t2), a2 = y0 + (c52·t1 + c51·t2); b1 = s51·d1 + s52·d2, b2 =
// s52·d1 − s51·d2, each turned into −i·b.
#define DFT5 \
	VADDPD Y4, Y1, Y5;            \
	VADDPD Y3, Y2, Y7;            \
	VSUBPD Y4, Y1, Y6;            \
	VSUBPD Y3, Y2, Y8;            \
	VADDPD Y5, Y0, Y9;            \
	VADDPD Y7, Y9, Y9;            \
	VMULPD c51<>(SB), Y5, Y10;    \
	VMULPD c52<>(SB), Y7, Y11;    \
	VADDPD Y11, Y10, Y10;         \
	VADDPD Y10, Y0, Y10;          \
	VMULPD c52<>(SB), Y5, Y11;    \
	VMULPD c51<>(SB), Y7, Y12;    \
	VADDPD Y12, Y11, Y11;         \
	VADDPD Y11, Y0, Y11;          \
	VMULPD s51<>(SB), Y6, Y12;    \
	VMULPD s52<>(SB), Y8, Y13;    \
	VADDPD Y13, Y12, Y12;         \
	VMULPD s52<>(SB), Y6, Y13;    \
	VMULPD s51<>(SB), Y8, Y14;    \
	VSUBPD Y14, Y13, Y13;         \
	ROTNEG(Y12);                  \
	ROTNEG(Y13);                  \
	VADDPD Y12, Y10, Y1;          \
	VSUBPD Y12, Y10, Y4;          \
	VADDPD Y13, Y11, Y2;          \
	VSUBPD Y13, Y11, Y3

// SETUP loads the arguments shared by every combine pass: DI = x, SI = tw,
// DX = m in bytes (one row), R10 = bytes covered by the k pairs, CX =
// blocks, R8 = 3m in bytes.
#define SETUP \
	MOVQ x+0(FP), DI;      \
	MOVQ tw+8(FP), SI;     \
	MOVQ m+16(FP), DX;     \
	MOVQ blocks+24(FP), CX; \
	MOVQ DX, R10;          \
	ANDQ $-2, R10;         \
	SHLQ $4, R10;          \
	SHLQ $4, DX;           \
	LEAQ (DX)(DX*2), R8

// NEXTK advances the k pair (BX into x, R11 into tw) and jumps back to
// label while pairs remain, then steps DI to the next block (stride in R9).
#define NEXTK(label, blocklabel) \
	ADDQ $32, AX;   \
	CMPQ AX, R10;   \
	JB   label;     \
	ADDQ R9, DI;    \
	DECQ CX;        \
	JNZ  blocklabel

// GATHER fills y with the complex128 at m0 (low lane) and at m1 (high
// lane); x is the XMM half of y.
#define GATHER(x, y, m0, m1) \
	VMOVUPD     m0, x; \
	VINSERTF128 $1, m1, y, y

// LEAFSETUP loads the arguments shared by every leaf pass: DI = dst, SI =
// src, R10 = off, DX = s in bytes, CX = pairs, R8 = 3s in bytes.
#define LEAFSETUP \
	MOVQ dst+0(FP), DI;    \
	MOVQ src+8(FP), SI;    \
	MOVQ off+16(FP), R10;  \
	MOVQ s+24(FP), DX;     \
	MOVQ pairs+32(FP), CX; \
	SHLQ $4, DX;           \
	LEAQ (DX)(DX*2), R8

// LEAFBASES points R11 and R12 at the sources of the two leaves of this
// iteration, src + off[b] and src + off[b+1].
#define LEAFBASES \
	MOVQ 0(R10), R11; \
	MOVQ 8(R10), R12; \
	SHLQ $4, R11;     \
	SHLQ $4, R12;     \
	ADDQ SI, R11;     \
	ADDQ SI, R12

// func combine2AVX2(x, tw *complex128, m, blocks int)
TEXT ·combine2AVX2(SB), NOSPLIT, $0-32
	SETUP
	LEAQ (DX*2), R9

c2block:
	XORQ AX, AX

c2k:
	LEAQ    (DI)(AX*1), BX
	LEAQ    (SI)(AX*1), R11
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(DX*1), Y1
	TWMUL(Y1, (R11)(DX*1))
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, (BX)(DX*1)
	NEXTK(c2k, c2block)
	VZEROUPPER
	RET

// func combine3AVX2(x, tw *complex128, m, blocks int)
TEXT ·combine3AVX2(SB), NOSPLIT, $0-32
	SETUP
	MOVQ R8, R9

c3block:
	XORQ AX, AX

c3k:
	LEAQ    (DI)(AX*1), BX
	LEAQ    (SI)(AX*1), R11
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(DX*1), Y1
	VMOVUPD (BX)(DX*2), Y2
	TWMUL(Y1, (R11)(DX*1))
	TWMUL(Y2, (R11)(DX*2))
	DFT3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(DX*1)
	VMOVUPD Y2, (BX)(DX*2)
	NEXTK(c3k, c3block)
	VZEROUPPER
	RET

// func combine4AVX2(x, tw *complex128, m, blocks int)
TEXT ·combine4AVX2(SB), NOSPLIT, $0-32
	SETUP
	LEAQ (DX*4), R9

c4block:
	XORQ AX, AX

c4k:
	LEAQ    (DI)(AX*1), BX
	LEAQ    (SI)(AX*1), R11
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(DX*1), Y1
	VMOVUPD (BX)(DX*2), Y2
	VMOVUPD (BX)(R8*1), Y3
	TWMUL(Y1, (R11)(DX*1))
	TWMUL(Y2, (R11)(DX*2))
	TWMUL(Y3, (R11)(R8*1))
	DFT4
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(DX*1)
	VMOVUPD Y2, (BX)(DX*2)
	VMOVUPD Y3, (BX)(R8*1)
	NEXTK(c4k, c4block)
	VZEROUPPER
	RET

// func combine5AVX2(x, tw *complex128, m, blocks int)
TEXT ·combine5AVX2(SB), NOSPLIT, $0-32
	SETUP
	LEAQ (DX)(DX*4), R9

c5block:
	XORQ AX, AX

c5k:
	LEAQ    (DI)(AX*1), BX
	LEAQ    (SI)(AX*1), R11
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(DX*1), Y1
	VMOVUPD (BX)(DX*2), Y2
	VMOVUPD (BX)(R8*1), Y3
	VMOVUPD (BX)(DX*4), Y4
	TWMUL(Y1, (R11)(DX*1))
	TWMUL(Y2, (R11)(DX*2))
	TWMUL(Y3, (R11)(R8*1))
	TWMUL(Y4, (R11)(DX*4))
	DFT5
	VMOVUPD Y9, (BX)
	VMOVUPD Y1, (BX)(DX*1)
	VMOVUPD Y2, (BX)(DX*2)
	VMOVUPD Y3, (BX)(R8*1)
	VMOVUPD Y4, (BX)(DX*4)
	NEXTK(c5k, c5block)
	VZEROUPPER
	RET

// The leaf passes run the m = 1 level of smoothPlan.forwardInto — the
// codelet on r inputs read at stride s, no twiddles — for two leaves per
// iteration, leaf b in the low lanes and leaf b+1 in the high lanes, and
// transpose the results into the 2r contiguous outputs dst[b·r:(b+2)·r].
// off holds the source offset of every leaf, two per iteration.

// func leaf2AVX2(dst, src *complex128, off *int, s, pairs int)
TEXT ·leaf2AVX2(SB), NOSPLIT, $0-40
	LEAFSETUP

l2:
	LEAFBASES
	GATHER(X0, Y0, (R11), (R12))
	GATHER(X1, Y1, (R11)(DX*1), (R12)(DX*1))
	VADDPD     Y1, Y0, Y2
	VSUBPD     Y1, Y0, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPD    Y4, 0(DI)
	VMOVUPD    Y5, 32(DI)
	ADDQ       $64, DI
	ADDQ       $16, R10
	DECQ       CX
	JNZ        l2
	VZEROUPPER
	RET

// func leaf3AVX2(dst, src *complex128, off *int, s, pairs int)
TEXT ·leaf3AVX2(SB), NOSPLIT, $0-40
	LEAFSETUP

l3:
	LEAFBASES
	GATHER(X0, Y0, (R11), (R12))
	GATHER(X1, Y1, (R11)(DX*1), (R12)(DX*1))
	GATHER(X2, Y2, (R11)(DX*2), (R12)(DX*2))
	DFT3
	VPERM2F128 $0x20, Y1, Y0, Y6
	VBLENDPD   $12, Y0, Y2, Y7
	VPERM2F128 $0x31, Y2, Y1, Y8
	VMOVUPD    Y6, 0(DI)
	VMOVUPD    Y7, 32(DI)
	VMOVUPD    Y8, 64(DI)
	ADDQ       $96, DI
	ADDQ       $16, R10
	DECQ       CX
	JNZ        l3
	VZEROUPPER
	RET

// func leaf4AVX2(dst, src *complex128, off *int, s, pairs int)
TEXT ·leaf4AVX2(SB), NOSPLIT, $0-40
	LEAFSETUP

l4:
	LEAFBASES
	GATHER(X0, Y0, (R11), (R12))
	GATHER(X1, Y1, (R11)(DX*1), (R12)(DX*1))
	GATHER(X2, Y2, (R11)(DX*2), (R12)(DX*2))
	GATHER(X3, Y3, (R11)(R8*1), (R12)(R8*1))
	DFT4
	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x20, Y3, Y2, Y5
	VPERM2F128 $0x31, Y1, Y0, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	VMOVUPD    Y4, 0(DI)
	VMOVUPD    Y5, 32(DI)
	VMOVUPD    Y6, 64(DI)
	VMOVUPD    Y7, 96(DI)
	ADDQ       $128, DI
	ADDQ       $16, R10
	DECQ       CX
	JNZ        l4
	VZEROUPPER
	RET

// func leaf5AVX2(dst, src *complex128, off *int, s, pairs int)
TEXT ·leaf5AVX2(SB), NOSPLIT, $0-40
	LEAFSETUP

l5:
	LEAFBASES
	GATHER(X0, Y0, (R11), (R12))
	GATHER(X1, Y1, (R11)(DX*1), (R12)(DX*1))
	GATHER(X2, Y2, (R11)(DX*2), (R12)(DX*2))
	GATHER(X3, Y3, (R11)(R8*1), (R12)(R8*1))
	GATHER(X4, Y4, (R11)(DX*4), (R12)(DX*4))
	DFT5
	VPERM2F128 $0x20, Y1, Y9, Y5
	VPERM2F128 $0x20, Y3, Y2, Y6
	VBLENDPD   $12, Y9, Y4, Y7
	VPERM2F128 $0x31, Y2, Y1, Y8
	VPERM2F128 $0x31, Y4, Y3, Y10
	VMOVUPD    Y5, 0(DI)
	VMOVUPD    Y6, 32(DI)
	VMOVUPD    Y7, 64(DI)
	VMOVUPD    Y8, 96(DI)
	VMOVUPD    Y10, 128(DI)
	ADDQ       $160, DI
	ADDQ       $16, R10
	DECQ       CX
	JNZ        l5
	VZEROUPPER
	RET
