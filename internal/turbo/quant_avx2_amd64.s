// AVX2 kernels for the quantized max-log-MAP hot loops (see quant.go for
// the metric conventions and radix4.go for the dispatch). The 8 trellis
// state metrics live as 8×int32 lanes of one YMM register; every operation
// below (add, subtract, signed max, permute, saturating pack) is the exact
// vector counterpart of the scalar int32 arithmetic in constituentQ, so the
// kernels are bit-identical to the scalar path by construction — there is
// no floating point and no reassociation that could change a max.
//
// Both kernels step radix-4: each loop iteration fuses two trellis stages,
// with the second stage's branch-metric vector built while the first
// stage's row settles. Renormalization (rowmax subtract + qFloor clamp)
// happens per stage, exactly as in the scalar path — deferring it across
// the fused pair would change which states saturate and break bit-identity.
//
// Lane layouts (state s = lane s):
//
//	forward butterfly   n_s = max(b[idxA_s] + cA_s, b[idxB_s] - cA_s)
//	  idxA = 0 0 1 1 2 2 3 3, idxB = 4 4 5 5 6 6 7 7
//	  cA_s = sGs_s·gs + sGp_s·gp with sGs = + - + - - + - +,
//	         sGp = + - - + + - - +   (lanes of c0 c3 c1 c2 c2 c1 c3 c0)
//	backward shared sums u_even_s = beta[idxE_s] + cE_s (branch u=0),
//	                     u_odd_s  = beta[idxO_s] - cE_s (branch u=1)
//	  idxE = 0 2 5 7 1 3 4 6, idxO = 1 3 4 6 0 2 5 7
//	  cE_s = gs + sGp_s·gp    (same sGp pattern as the forward kernel)
//	then beta'_s = max(u_even_s, u_odd_s) and
//	m0 = hmax(alpha + u_even), m1 = hmax(alpha + u_odd).

#include "textflag.h"

DATA fwdIdxA<>+0x00(SB)/4, $0
DATA fwdIdxA<>+0x04(SB)/4, $0
DATA fwdIdxA<>+0x08(SB)/4, $1
DATA fwdIdxA<>+0x0c(SB)/4, $1
DATA fwdIdxA<>+0x10(SB)/4, $2
DATA fwdIdxA<>+0x14(SB)/4, $2
DATA fwdIdxA<>+0x18(SB)/4, $3
DATA fwdIdxA<>+0x1c(SB)/4, $3
GLOBL fwdIdxA<>(SB), RODATA|NOPTR, $32

DATA fwdIdxB<>+0x00(SB)/4, $4
DATA fwdIdxB<>+0x04(SB)/4, $4
DATA fwdIdxB<>+0x08(SB)/4, $5
DATA fwdIdxB<>+0x0c(SB)/4, $5
DATA fwdIdxB<>+0x10(SB)/4, $6
DATA fwdIdxB<>+0x14(SB)/4, $6
DATA fwdIdxB<>+0x18(SB)/4, $7
DATA fwdIdxB<>+0x1c(SB)/4, $7
GLOBL fwdIdxB<>(SB), RODATA|NOPTR, $32

DATA signGs<>+0x00(SB)/4, $1
DATA signGs<>+0x04(SB)/4, $-1
DATA signGs<>+0x08(SB)/4, $1
DATA signGs<>+0x0c(SB)/4, $-1
DATA signGs<>+0x10(SB)/4, $-1
DATA signGs<>+0x14(SB)/4, $1
DATA signGs<>+0x18(SB)/4, $-1
DATA signGs<>+0x1c(SB)/4, $1
GLOBL signGs<>(SB), RODATA|NOPTR, $32

DATA signGp<>+0x00(SB)/4, $1
DATA signGp<>+0x04(SB)/4, $-1
DATA signGp<>+0x08(SB)/4, $-1
DATA signGp<>+0x0c(SB)/4, $1
DATA signGp<>+0x10(SB)/4, $1
DATA signGp<>+0x14(SB)/4, $-1
DATA signGp<>+0x18(SB)/4, $-1
DATA signGp<>+0x1c(SB)/4, $1
GLOBL signGp<>(SB), RODATA|NOPTR, $32

DATA qFloorV<>+0x00(SB)/4, $-32767
DATA qFloorV<>+0x04(SB)/4, $-32767
DATA qFloorV<>+0x08(SB)/4, $-32767
DATA qFloorV<>+0x0c(SB)/4, $-32767
DATA qFloorV<>+0x10(SB)/4, $-32767
DATA qFloorV<>+0x14(SB)/4, $-32767
DATA qFloorV<>+0x18(SB)/4, $-32767
DATA qFloorV<>+0x1c(SB)/4, $-32767
GLOBL qFloorV<>(SB), RODATA|NOPTR, $32

DATA bwdIdxE<>+0x00(SB)/4, $0
DATA bwdIdxE<>+0x04(SB)/4, $2
DATA bwdIdxE<>+0x08(SB)/4, $5
DATA bwdIdxE<>+0x0c(SB)/4, $7
DATA bwdIdxE<>+0x10(SB)/4, $1
DATA bwdIdxE<>+0x14(SB)/4, $3
DATA bwdIdxE<>+0x18(SB)/4, $4
DATA bwdIdxE<>+0x1c(SB)/4, $6
GLOBL bwdIdxE<>(SB), RODATA|NOPTR, $32

DATA bwdIdxO<>+0x00(SB)/4, $1
DATA bwdIdxO<>+0x04(SB)/4, $3
DATA bwdIdxO<>+0x08(SB)/4, $4
DATA bwdIdxO<>+0x0c(SB)/4, $6
DATA bwdIdxO<>+0x10(SB)/4, $0
DATA bwdIdxO<>+0x14(SB)/4, $2
DATA bwdIdxO<>+0x18(SB)/4, $5
DATA bwdIdxO<>+0x1c(SB)/4, $7
GLOBL bwdIdxO<>(SB), RODATA|NOPTR, $32

// One forward trellis stage. Reads gs/gp at offset off from SI/DX, evolves
// the state row in Y0, stores the renormalized int16 row at off*8 from DI.
// Clobbers AX BX X1-X8 Y1-Y8.
#define FWDSTAGE(off) \
	MOVWLSX off(SI), AX    \
	MOVWLSX off(DX), BX    \
	VMOVD   AX, X1         \
	VPBROADCASTD X1, Y1    \
	VMOVD   BX, X2         \
	VPBROADCASTD X2, Y2    \
	VPSIGND Y12, Y1, Y3    \ // gs·sGs
	VPSIGND Y13, Y2, Y4    \ // gp·sGp
	VPADDD  Y4, Y3, Y3     \ // cA
	VPERMD  Y0, Y10, Y5    \ // b[idxA]
	VPERMD  Y0, Y11, Y6    \ // b[idxB]
	VPADDD  Y3, Y5, Y5     \
	VPSUBD  Y3, Y6, Y6     \
	VPMAXSD Y6, Y5, Y5     \ // n
	VPERMQ  $0x4e, Y5, Y7  \ // rowmax: swap 128 halves
	VPMAXSD Y7, Y5, Y7     \
	VPSHUFD $0x4e, Y7, Y8  \
	VPMAXSD Y8, Y7, Y7     \
	VPSHUFD $0xb1, Y7, Y8  \
	VPMAXSD Y8, Y7, Y7     \ // m in all lanes
	VPSUBD  Y7, Y5, Y5     \ // n − m
	VPMAXSD Y14, Y5, Y0    \ // clamp at qFloor → new row
	VPACKSSDW Y0, Y0, Y8   \ // int32→int16 (exact: rows ∈ [qFloor, 0])
	VPERMQ  $0x08, Y8, Y8  \
	VMOVDQU X8, (off*8)(DI)

// func forwardStepsAVX2(rows *int16, qg0 *int16, qg1 *int16, n int, av *[8]int32)
// Runs n trellis stages: stage j reads qg0[j]/qg1[j], stores the int16 row
// at rows[j*8:], carrying the int32 state vector in av across the call.
TEXT ·forwardStepsAVX2(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), DI
	MOVQ qg0+8(FP), SI
	MOVQ qg1+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ av+32(FP), R8
	VMOVDQU (R8), Y0
	VMOVDQU fwdIdxA<>(SB), Y10
	VMOVDQU fwdIdxB<>(SB), Y11
	VMOVDQU signGs<>(SB), Y12
	VMOVDQU signGp<>(SB), Y13
	VMOVDQU qFloorV<>(SB), Y14

fwdPair:
	CMPQ CX, $2
	JLT  fwdTail
	FWDSTAGE(0)
	FWDSTAGE(2)
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $32, DI
	SUBQ $2, CX
	JMP  fwdPair

fwdTail:
	TESTQ CX, CX
	JZ    fwdDone
	FWDSTAGE(0)

fwdDone:
	VMOVDQU Y0, (R8)
	VZEROUPPER
	RET

// One backward stage at offsets off (int16 streams), offR (alpha row),
// offH (hard byte). Evolves beta in Y0; writes hard/le.
// Clobbers AX BX R10 R11 R12 X1-X9 Y1-Y9.
#define BWDSTAGE(off, offR, offH) \
	MOVWLSX off(SI), AX      \ // gs
	MOVWLSX off(DX), BX      \ // gp
	VMOVD   AX, X1           \
	VPBROADCASTD X1, Y1      \
	VMOVD   BX, X2           \
	VPBROADCASTD X2, Y2      \
	VPSIGND Y12, Y2, Y3      \ // gp·sGp
	VPADDD  Y3, Y1, Y3       \ // cE
	VPERMD  Y0, Y10, Y5      \ // beta[idxE]
	VPERMD  Y0, Y11, Y6      \ // beta[idxO]
	VPADDD  Y3, Y5, Y5       \ // u_even
	VPSUBD  Y3, Y6, Y6       \ // u_odd
	VPMAXSD Y6, Y5, Y9       \ // new beta row
	VPMOVSXWD offR(DI), Y7   \ // alpha row i
	VPADDD  Y7, Y5, Y5       \ // t0 = alpha + u_even
	VPADDD  Y7, Y6, Y6       \ // t1 = alpha + u_odd
	VPERM2I128 $0x20, Y6, Y5, Y7 \ // [t0.lo | t1.lo]
	VPERM2I128 $0x31, Y6, Y5, Y8 \ // [t0.hi | t1.hi]
	VPMAXSD Y8, Y7, Y7       \ // dual 8→4 reduction
	VPSHUFD $0x4e, Y7, Y8    \
	VPMAXSD Y8, Y7, Y7       \
	VPSHUFD $0xb1, Y7, Y8    \
	VPMAXSD Y8, Y7, Y7       \ // lane0 = m0, lane4 = m1
	VMOVD   X7, R10          \
	VEXTRACTI128 $1, Y7, X8  \
	VMOVD   X8, R11          \
	VMOVDQA Y9, Y0           \
	SUBL    R11, R10         \ // d = m0 − m1
	MOVL    R10, R12         \
	SHRL    $31, R12         \
	MOVB    R12, offH(R9)    \ // hard = sign bit of d
	SARL    $1, R10          \
	SUBL    AX, R10          \ // (d>>1) − gs
	MOVL    $8191, R12       \
	CMPL    R10, R12         \
	CMOVLGT R12, R10         \
	MOVL    $-8191, R12      \
	CMPL    R10, R12         \
	CMOVLLT R12, R10         \
	MOVW    R10, off(R15)

// func backwardLLRAVX2(rows *int16, qg0 *int16, qg1 *int16, n int, bv *[8]int32, le *int16, hard *byte)
// Runs stages j = n−1 … 0 of the fused backward/LLR recursion: stage j
// reads qg0[j]/qg1[j] and the stored alpha row rows[j*8:], updates beta in
// bv, and writes le[j] plus the hard sign bit hard[j].
TEXT ·backwardLLRAVX2(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), DI
	MOVQ qg0+8(FP), SI
	MOVQ qg1+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ bv+32(FP), R8
	MOVQ le+40(FP), R15
	MOVQ hard+48(FP), R9
	VMOVDQU (R8), Y0
	VMOVDQU bwdIdxE<>(SB), Y10
	VMOVDQU bwdIdxO<>(SB), Y11
	VMOVDQU signGp<>(SB), Y12

	// Point everything at the last stage (j = n−1).
	MOVQ CX, R13
	DECQ R13
	LEAQ (SI)(R13*2), SI
	LEAQ (DX)(R13*2), DX
	LEAQ (R15)(R13*2), R15
	LEAQ (R9)(R13*1), R9
	SHLQ $4, R13
	LEAQ (DI)(R13*1), DI

bwdPair:
	CMPQ CX, $2
	JLT  bwdTail
	BWDSTAGE(0, 0, 0)
	BWDSTAGE(-2, -16, -1)
	SUBQ $4, SI
	SUBQ $4, DX
	SUBQ $4, R15
	SUBQ $2, R9
	SUBQ $32, DI
	SUBQ $2, CX
	JMP  bwdPair

bwdTail:
	TESTQ CX, CX
	JZ    bwdDone
	BWDSTAGE(0, 0, 0)

bwdDone:
	VMOVDQU Y0, (R8)
	VZEROUPPER
	RET
