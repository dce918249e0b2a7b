// AVX2 float64 soft demappers (see kernels.go for the dispatch). One YMM
// register holds two symbols [re0 im0 re1 im1]; since every LLR of
// demapScalar depends on one component only, the four lanes run the same
// code. A branch of softSign16/softSign64 is computed for all lanes with
// the scalar expression's operations in its order, and VCMPPD/VBLENDVPD
// pick the one the scalar switch would take: ordered compares, so a NaN
// fails every test like it does in Go, and x < 0 is false for −0, which
// therefore takes signOf's +1 branch. No fused multiply-add is used, so
// every bit matches the scalar code.

#include "textflag.h"

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask<>+8(SB)/8, $0x7fffffffffffffff
DATA absmask<>+16(SB)/8, $0x7fffffffffffffff
DATA absmask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $32

DATA signmask<>+0(SB)/8, $0x8000000000000000
DATA signmask<>+8(SB)/8, $0x8000000000000000
DATA signmask<>+16(SB)/8, $0x8000000000000000
DATA signmask<>+24(SB)/8, $0x8000000000000000
GLOBL signmask<>(SB), RODATA|NOPTR, $32

DATA two<>+0(SB)/8, $0x4000000000000000
DATA two<>+8(SB)/8, $0x4000000000000000
DATA two<>+16(SB)/8, $0x4000000000000000
DATA two<>+24(SB)/8, $0x4000000000000000
GLOBL two<>(SB), RODATA|NOPTR, $32

DATA three<>+0(SB)/8, $0x4008000000000000
DATA three<>+8(SB)/8, $0x4008000000000000
DATA three<>+16(SB)/8, $0x4008000000000000
DATA three<>+24(SB)/8, $0x4008000000000000
GLOBL three<>(SB), RODATA|NOPTR, $32

DATA four<>+0(SB)/8, $0x4010000000000000
DATA four<>+8(SB)/8, $0x4010000000000000
DATA four<>+16(SB)/8, $0x4010000000000000
DATA four<>+24(SB)/8, $0x4010000000000000
GLOBL four<>(SB), RODATA|NOPTR, $32

// Byte offsets of the demapConsts fields.
#define PREOFF 0
#define POSTOFF 32
#define GAINOFF 64
#define SCALEOFF 96
#define AOFF 128
#define A2OFF 160
#define A3OFF 192
#define A4OFF 224
#define A6OFF 256

// DSETUP loads the arguments: DI = dst, R9 = sign (or 0), SI = x, CX =
// pairs, R8 = the constants.
#define DSETUP \
	MOVQ dst+0(FP), DI;   \
	MOVQ sign+8(FP), R9;  \
	MOVQ x+16(FP), SI;    \
	MOVQ pairs+24(FP), CX; \
	MOVQ c+32(FP), R8

// LOADSYM loads the next two symbols into Y0 and applies the two
// per-part multiplies.
#define LOADSYM \
	VMOVUPD (SI), Y0;               \
	VMULPD  PREOFF(R8), Y0, Y0;     \
	VMULPD  POSTOFF(R8), Y0, Y0

// SIGNSTORE stores the four LLRs in v at off(DI), first multiplied by the
// sign entries at off(R9) when R9 is not nil.
#define SIGNSTORE(v, off) \
	TESTQ   R9, R9;        \
	JZ      2(PC);         \
	VMULPD  off(R9), v, v; \
	VMOVUPD v, off(DI)

// NEXT advances x by two symbols, dst and a non-nil sign by bytes, and
// loops to label while pairs remain.
#define NEXT(bytes, label) \
	ADDQ  $32, SI;    \
	ADDQ  bytes, DI;  \
	TESTQ R9, R9;     \
	JZ    2(PC);      \
	ADDQ  bytes, R9;  \
	DECQ  CX;         \
	JNZ   label

// SIGNED(off, dst) sets dst to the constant at off(R8) negated in the
// lanes where Y2 (x < 0) is set: signOf(x)·k·a.
#define SIGNED(off, dst) \
	VMOVUPD   off(R8), dst;              \
	VXORPD    signmask<>(SB), dst, Y15;  \
	VBLENDVPD Y2, Y15, dst, dst

// func demapQPSKAVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts)
// dst[2i], dst[2i+1] = g·re·qpskScale, g·im·qpskScale: the register is
// already in output order.
TEXT ·demapQPSKAVX2(SB), NOSPLIT, $0-40
	DSETUP

qpsk:
	LOADSYM
	VMULPD GAINOFF(R8), Y0, Y0
	VMULPD SCALEOFF(R8), Y0, Y0
	SIGNSTORE(Y0, 0)
	NEXT($32, qpsk)
	VZEROUPPER
	RET

// func demap16AVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts)
// S = softSign16(x): 2·(x−a) if x > 2a, 2·(x+a) if x < −2a, else x;
// A = 2a − |x|; both times g·a. Symbol i's four LLRs are its S pair then
// its A pair.
TEXT ·demap16AVX2(SB), NOSPLIT, $0-40
	DSETUP
	VMOVUPD GAINOFF(R8), Y15
	VMOVUPD AOFF(R8), Y14
	VMOVUPD A2OFF(R8), Y13
	VXORPD  signmask<>(SB), Y13, Y12
	VMOVUPD two<>(SB), Y11
	VMOVUPD absmask<>(SB), Y10

qam16:
	LOADSYM
	VSUBPD     Y14, Y0, Y1
	VMULPD     Y11, Y1, Y1
	VADDPD     Y14, Y0, Y2
	VMULPD     Y11, Y2, Y2
	VCMPPD     $0x1e, Y13, Y0, Y3
	VCMPPD     $0x11, Y12, Y0, Y4
	VBLENDVPD  Y4, Y2, Y0, Y5
	VBLENDVPD  Y3, Y1, Y5, Y5
	VMULPD     Y5, Y15, Y5
	VANDPD     Y10, Y0, Y6
	VSUBPD     Y6, Y13, Y6
	VMULPD     Y6, Y15, Y6
	VPERM2F128 $0x20, Y6, Y5, Y7
	VPERM2F128 $0x31, Y6, Y5, Y8
	SIGNSTORE(Y7, 0)
	SIGNSTORE(Y8, 32)
	NEXT($64, qam16)
	VZEROUPPER
	RET

// func demap64AVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts)
// S = softSign64(x), v1..v4 = x, 2·(x∓a), 3·(x∓2a), 4·(x∓3a) chosen by
// |x| ≤ 2a, 4a, 6a; B = 4a − |x|; C = 2a − ||x| − 4a|; all times g·a.
// Symbol i's six LLRs are its S, B and C pairs.
TEXT ·demap64AVX2(SB), NOSPLIT, $0-40
	DSETUP
	VMOVUPD absmask<>(SB), Y14
	VMOVUPD GAINOFF(R8), Y13
	VXORPD  Y12, Y12, Y12

qam64:
	LOADSYM
	VANDPD     Y14, Y0, Y1
	VCMPPD     $0x11, Y12, Y0, Y2
	SIGNED(AOFF, Y3)
	VSUBPD     Y3, Y0, Y3
	VMULPD     two<>(SB), Y3, Y3
	SIGNED(A2OFF, Y4)
	VSUBPD     Y4, Y0, Y4
	VMULPD     three<>(SB), Y4, Y4
	SIGNED(A3OFF, Y5)
	VSUBPD     Y5, Y0, Y5
	VMULPD     four<>(SB), Y5, Y5
	VCMPPD     $0x12, A6OFF(R8), Y1, Y6
	VBLENDVPD  Y6, Y4, Y5, Y5
	VCMPPD     $0x12, A4OFF(R8), Y1, Y6
	VBLENDVPD  Y6, Y3, Y5, Y5
	VCMPPD     $0x12, A2OFF(R8), Y1, Y6
	VBLENDVPD  Y6, Y0, Y5, Y5
	VMULPD     Y5, Y13, Y5
	VMOVUPD    A4OFF(R8), Y6
	VSUBPD     Y1, Y6, Y6
	VMULPD     Y6, Y13, Y6
	VSUBPD     A4OFF(R8), Y1, Y7
	VANDPD     Y14, Y7, Y7
	VMOVUPD    A2OFF(R8), Y8
	VSUBPD     Y7, Y8, Y8
	VMULPD     Y8, Y13, Y8
	VPERM2F128 $0x20, Y6, Y5, Y9
	VBLENDPD   $12, Y5, Y8, Y10
	VPERM2F128 $0x31, Y8, Y6, Y11
	SIGNSTORE(Y9, 0)
	SIGNSTORE(Y10, 32)
	SIGNSTORE(Y11, 64)
	NEXT($96, qam64)
	VZEROUPPER
	RET
