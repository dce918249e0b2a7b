// AVX2 kernels for the quantized max-log-MAP hot loops (see quant.go for
// the metric conventions and radix4.go for the dispatch). The 8 trellis
// state metrics live as 8×int32 lanes of one YMM register; every operation
// below (add, subtract, signed max, permute, saturating pack) is the exact
// vector counterpart of the scalar int32 arithmetic in constituentQ, so the
// kernels are bit-identical to the scalar path by construction — there is
// no floating point and no reassociation that could change a max.
//
// A constituent pass runs the forward (α) and backward (β) recursions as two
// independent dependency chains stepped side by side, so each hides the
// other's latency; they meet at mid = K/2.
//
//	inwardAVX2   α over stages [3, mid), storing int16 rows 4..mid, and,
//	             interleaved, β-only from the tail seed over stages
//	             K−1 … mid, storing each incoming row β_{i+1} as 8×int32
//	             at beta[(i−mid)·8] — unnormalized, exactly the register
//	             value, so no rounding or clamp is introduced.
//	outwardAVX2  α over stages [mid, K) with LLRs from the stage's branch
//	             candidates and the stored β_{i+1}, no α stores; and,
//	             interleaved, the fused β/LLR recursion over stages
//	             mid−1 … 3 on the stored α rows, leaving β_3 for the
//	             scalar epilogue.
//
// Every α row, β row, m0 and m1 is the same int32 the sequential schedule
// computes; only the order of the steps changes. Renormalization (rowmax
// subtract + qFloor clamp) stays per forward stage, exactly as in the
// scalar path, whose stage is n = max(b[idxA] + cA, b[idxB] − cA), m =
// hmax(n), b' = max(n − m, qFloor). The two phases carry that recursion in
// two algebraically equal forms:
//
//   - inwardAVX2 is bound by the forward chain's latency, so it carries n and
//     m instead of b. Substituting b = max(n − m, qFloor) and distributing
//     the adds over the max gives the next stage as P = max(n[idxA] + cA,
//     n[idxB] − cA), n' = max(P − m, qFloor + |cA|). Its row max is m' =
//     hmax(P) − m: the state where b is 0 has successor branches c and −c,
//     so hmax(n') ≥ 0, while qFloor + |cA| < 0 under the rail invariant.
//     The row-max reduction thus runs on P beside the next stage instead of
//     in front of it, and the chain per stage is permute, add, max,
//     subtract, max. The α row b' = max(n' − m', qFloor) is stored off the
//     chain.
//   - outwardAVX2 is bound by throughput, and needs each stage's branch
//     candidates for its LLR, so it carries b pre-permuted (A = b[idxA],
//     B = b[idxB]): the permutes of stage i+1 run beside stage i's row-max
//     reduction, and the −m/clamp is applied to A and B lane-wise, which
//     commutes with the permutation.
//
// Per-stage inputs come as interleaved int16 pairs (gs, gp) with gs =
// lsys+la and gp = lpar, written by interleaveAVX2: one dword broadcast
// puts stage i's pair in every lane, and one VPMADDWD against ±1 weights
// yields cA or cE in int32, exactly.
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
//
// Register map: Y0/Y14 inward's n/m, Y14/Y15 outward's A/B, Y9 β row,
// Y10/Y11 idxA/idxB, Y12/Y13 idxE/idxO; Y1/Y2 the forward/backward stage's
// pair, the rest scratch.

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

// VPMADDWD weights on a stage's (gs, gp) pair, one int16 pair per lane:
// fwdW = (sGs_s, sGp_s) gives cA, bwdW = (1, sGp_s) gives cE. The products
// are by ±1, so every sum is exact.
DATA fwdW<>+0x00(SB)/4, $0x00010001
DATA fwdW<>+0x04(SB)/4, $0xffffffff
DATA fwdW<>+0x08(SB)/4, $0xffff0001
DATA fwdW<>+0x0c(SB)/4, $0x0001ffff
DATA fwdW<>+0x10(SB)/4, $0x0001ffff
DATA fwdW<>+0x14(SB)/4, $0xffff0001
DATA fwdW<>+0x18(SB)/4, $0xffffffff
DATA fwdW<>+0x1c(SB)/4, $0x00010001
GLOBL fwdW<>(SB), RODATA|NOPTR, $32

DATA bwdW<>+0x00(SB)/4, $0x00010001
DATA bwdW<>+0x04(SB)/4, $0xffff0001
DATA bwdW<>+0x08(SB)/4, $0xffff0001
DATA bwdW<>+0x0c(SB)/4, $0x00010001
DATA bwdW<>+0x10(SB)/4, $0x00010001
DATA bwdW<>+0x14(SB)/4, $0xffff0001
DATA bwdW<>+0x18(SB)/4, $0xffff0001
DATA bwdW<>+0x1c(SB)/4, $0x00010001
GLOBL bwdW<>(SB), RODATA|NOPTR, $32

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

// The (gs, gp) pair of stage idx, in every lane of p.
#define PAIR(idx, p) \
	VPBROADCASTD (SI)(idx*4), p

// One inward forward stage from its pair in Y1, on n = Y0 and m = Y14
// (see the header): stores the stage's α row at (DI). Clobbers Y3 Y7 Y8.
#define FWDIN \
	VPMADDWD  fwdW<>(SB), Y1, Y3    \ // cA
	VPERMD    Y0, Y10, Y7           \ // n[idxA]
	VPERMD    Y0, Y11, Y8           \ // n[idxB]
	VPADDD    Y3, Y7, Y7            \
	VPSUBD    Y3, Y8, Y8            \
	VPMAXSD   Y8, Y7, Y7            \ // P
	VPABSD    Y3, Y3                \
	VPADDD    qFloorV<>(SB), Y3, Y3 \ // qFloor + |cA|
	VPSUBD    Y14, Y7, Y8           \
	VPMAXSD   Y3, Y8, Y0            \ // n' = max(P − m, qFloor + |cA|)
	VPERMQ    $0x4e, Y7, Y3         \ // hmax(P): swap 128 halves
	VPMAXSD   Y3, Y7, Y3            \
	VPSHUFD   $0x4e, Y3, Y8         \
	VPMAXSD   Y8, Y3, Y3            \
	VPSHUFD   $0xb1, Y3, Y8         \
	VPMAXSD   Y8, Y3, Y3            \
	VPSUBD    Y14, Y3, Y14          \ // m' = hmax(P) − m
	VPSUBD    Y14, Y0, Y8           \
	VPMAXSD   qFloorV<>(SB), Y8, Y8 \ // the row: clamp(n' − m', qFloor)
	VPACKSSDW Y8, Y8, Y8            \ // int32→int16, exact: rows ∈ [qFloor, 0]
	VPERMQ    $0x08, Y8, Y8         \
	VMOVDQU   X8, (DI)

// One outward forward stage from its pair in Y1, on the pre-permuted row
// Y14/Y15. Between its two halves, X = Y7 and Y = Y8 hold the stage's
// candidates. Clobbers Y3 Y7 Y8.
#define FWDCAND \
	VPMADDWD fwdW<>(SB), Y1, Y3 \ // cA
	VPADDD   Y3, Y14, Y7        \ // X = b[idxA] + cA
	VPSUBD   Y3, Y15, Y8          // Y = b[idxB] − cA

#define FWDNEXT \
	VPMAXSD Y8, Y7, Y7              \ // n
	VPERMD  Y7, Y10, Y14            \ // n[idxA], beside the reduction
	VPERMD  Y7, Y11, Y15            \ // n[idxB]
	VPERMQ  $0x4e, Y7, Y3           \ // rowmax: swap 128 halves
	VPMAXSD Y3, Y7, Y3              \
	VPSHUFD $0x4e, Y3, Y8           \
	VPMAXSD Y8, Y3, Y3              \
	VPSHUFD $0xb1, Y3, Y8           \
	VPMAXSD Y8, Y3, Y3              \ // m in all lanes
	VPSUBD  Y3, Y14, Y14            \
	VPMAXSD qFloorV<>(SB), Y14, Y14 \ // next stage's b[idxA]
	VPSUBD  Y3, Y15, Y15            \
	VPMAXSD qFloorV<>(SB), Y15, Y15   // next stage's b[idxB]

// The forward stage's LLR sums in next-state order, from its candidates
// X = Y7 and Y = Y8 and the stored β_{i+1} at (R8): lane j of X is the
// branch into state j with u = 0 for j ∈ {0, 2, 5, 7} and with u = 1 for
// the others, Y the opposite, so t0 = [u=0 candidate] + β, t1 = [u=1
// candidate] + β — the same eight sums as alpha + u_even/u_odd, summed in
// another order, which int32 addition does not see.
#define LLRTERMS \
	VPBLENDD $0x5a, Y8, Y7, Y5 \
	VPBLENDD $0xa5, Y8, Y7, Y6 \
	VPADDD   (R8), Y5, Y5      \ // t0
	VPADDD   (R8), Y6, Y6        // t1

// The branch sums of one backward stage from its pair p and the β row in
// the register or memory operand row: ce = cE, e = u_even, o = u_odd.
#define BWDSUMS(row, p, ce, e, o) \
	VPMADDWD bwdW<>(SB), p, ce \ // cE
	VPERMD   row, Y12, e       \ // beta[idxE]
	VPERMD   row, Y13, o       \ // beta[idxO]
	VPADDD   ce, e, e          \ // u_even
	VPSUBD   ce, o, o            // u_odd

// Writes stage idx's LLR from d = m0 − m1 in the 32-bit register d, in
// scalar code, which keeps it off the vector ports the kernels are bound by:
// hard[idx] = sign bit of d, le[idx] = clamp((d>>1) − gs, ±LLRQMax) with
// DX = LLRQMax and DI = −LLRQMax. Clobbers d, R12.
#define LLROUT(d, idx) \
	MOVL    d, R12           \
	SHRL    $31, R12         \
	MOVB    R12, (R9)(idx*1) \
	SARL    $1, d            \
	MOVWLSX (SI)(idx*4), R12 \ // gs
	SUBL    R12, d           \
	CMPL    d, DX            \
	CMOVLGT DX, d            \
	CMPL    d, DI            \
	CMOVLLT DI, d            \
	MOVW    d, (R15)(idx*2)

// Writes stage idx's LLR from t0 = Y5, t1 = Y6 (alpha + u_even/u_odd).
// Clobbers AX R12 Y5-Y8.
#define LLR(idx) \
	VPERM2I128   $0x20, Y6, Y5, Y7 \ // [t0.lo | t1.lo]
	VPERM2I128   $0x31, Y6, Y5, Y8 \ // [t0.hi | t1.hi]
	VPMAXSD      Y8, Y7, Y7        \ // dual 8→4 reduction
	VPSHUFD      $0x4e, Y7, Y8     \
	VPMAXSD      Y8, Y7, Y7        \
	VPSHUFD      $0xb1, Y7, Y8     \
	VPMAXSD      Y8, Y7, Y7        \ // lane0 = m0, lane4 = m1
	VEXTRACTI128 $1, Y7, X8        \
	VPSUBD       X8, X7, X7        \ // d
	VMOVD        X7, AX            \
	LLROUT(AX, idx)

// LLR for two stages at once — forward stage CX from t0 = Y5, t1 = Y6,
// backward stage R13 from t0 = Y7, t1 = Y8 — sharing one four-way
// horizontal max. Each of its first two levels merges two vectors with two
// blends, one in-lane shuffle and one max, so only the last level crosses
// 128-bit lanes. Same values as LLR on each.
// Clobbers AX BX R12 Y3-Y8.
#define LLR2 \
	VPBLENDD     $0xaa, Y7, Y5, Y3     \ // fwd t0 / bwd t0
	VPBLENDD     $0xaa, Y5, Y7, Y4     \
	VPSHUFD      $0xb1, Y4, Y4         \
	VPMAXSD      Y4, Y3, Y3            \
	VPBLENDD     $0xaa, Y8, Y6, Y4     \ // fwd t1 / bwd t1
	VPBLENDD     $0xaa, Y6, Y8, Y5     \
	VPSHUFD      $0xb1, Y5, Y5         \
	VPMAXSD      Y5, Y4, Y4            \
	VPBLENDD     $0xcc, Y4, Y3, Y5     \ // all four
	VPBLENDD     $0xcc, Y3, Y4, Y6     \
	VPSHUFD      $0x4e, Y6, Y6         \
	VPMAXSD      Y6, Y5, Y5            \
	VEXTRACTI128 $1, Y5, X6            \
	VPMAXSD      X6, X5, X5            \ // m0 fwd, m0 bwd, m1 fwd, m1 bwd
	VPSHUFD      $0x4e, X5, X6         \
	VPSUBD       X6, X5, X5            \ // lane0 = d fwd, lane1 = d bwd
	VMOVQ        X5, AX                \
	MOVL         AX, BX                \
	SHRQ         $32, AX               \
	LLROUT(BX, CX)                     \
	LLROUT(AX, R13)

// Loads the shuffle indices and the β row from bv.
#define LOADSTATE(bvp) \
	VMOVDQU fwdIdxA<>(SB), Y10 \
	VMOVDQU fwdIdxB<>(SB), Y11 \
	VMOVDQU bwdIdxE<>(SB), Y12 \
	VMOVDQU bwdIdxO<>(SB), Y13 \
	VMOVDQU (bvp), Y9

// func inwardAVX2(alpha *int16, beta *int32, pairs *int16, k int, mid int, av *[8]int32, bv *[8]int32)
// Forward stages 3 … mid−1 from the α row in av (storing α rows 4 … mid),
// interleaved with β-only stages k−1 … mid from the β row in bv (storing
// each incoming row β_{i+1} at beta[(i−mid)·8]). Leaves α_mid in av and
// β_mid in bv.
TEXT ·inwardAVX2(SB), NOSPLIT, $0-56
	MOVQ alpha+0(FP), DI
	MOVQ beta+8(FP), R8
	MOVQ pairs+16(FP), SI
	MOVQ k+24(FP), R13
	MOVQ mid+32(FP), R10
	MOVQ    av+40(FP), AX
	MOVQ    bv+48(FP), BX
	LOADSTATE(BX)
	VMOVDQU (AX), Y0 // n = the row, with m = 0
	VPXOR   Y14, Y14, Y14

	MOVQ $3, CX  // forward stage
	ADDQ $64, DI // α row 4
	DECQ R13     // backward stage k−1
	MOVQ R13, R11
	SUBQ R10, R11
	SHLQ $5, R11
	ADDQ R11, R8 // beta[(k−1−mid)·8]

inBoth:
	CMPQ CX, R10
	JGE  inBwd
	CMPQ R13, R10
	JL   inFwd
	PAIR(CX, Y1)
	FWDIN
	VMOVDQU Y9, (R8)
	PAIR(R13, Y2)
	BWDSUMS(Y9, Y2, Y3, Y5, Y6)
	VPMAXSD Y6, Y5, Y9
	INCQ    CX
	ADDQ    $16, DI
	DECQ    R13
	SUBQ    $32, R8
	JMP     inBoth

inFwd:
	CMPQ CX, R10
	JGE  inDone
	PAIR(CX, Y1)
	FWDIN
	INCQ CX
	ADDQ $16, DI
	JMP  inFwd

inBwd:
	CMPQ    R13, R10
	JL      inDone
	VMOVDQU Y9, (R8)
	PAIR(R13, Y2)
	BWDSUMS(Y9, Y2, Y3, Y5, Y6)
	VPMAXSD Y6, Y5, Y9
	DECQ    R13
	SUBQ    $32, R8
	JMP     inBwd

inDone:
	VPSUBD  Y14, Y0, Y0
	VPMAXSD qFloorV<>(SB), Y0, Y0 // α_mid = clamp(n − m, qFloor)
	MOVQ    av+40(FP), AX
	VMOVDQU Y0, (AX)
	MOVQ    bv+48(FP), BX
	VMOVDQU Y9, (BX)
	VZEROUPPER
	RET

// func outwardAVX2(alpha *int16, beta *int32, pairs *int16, le *int16, hard *byte, k int, mid int, av *[8]int32, bv *[8]int32)
// Forward stages mid … k−1 from α_mid in av, each writing le[i]/hard[i]
// from the stage's candidates and the stored β_{i+1}, interleaved with fused
// backward/LLR stages mid−1 … 3 from β_mid in bv over the stored α rows.
// Leaves β_3 in bv.
TEXT ·outwardAVX2(SB), NOSPLIT, $0-72
	MOVQ alpha+0(FP), R11
	MOVQ beta+8(FP), R8
	MOVQ pairs+16(FP), SI
	MOVQ le+24(FP), R15
	MOVQ hard+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ mid+48(FP), CX
	MOVQ    av+56(FP), AX
	MOVQ    bv+64(FP), BX
	LOADSTATE(BX)
	VMOVDQU (AX), Y0
	VPERMD  Y0, Y10, Y14 // A = α_mid[idxA]
	VPERMD  Y0, Y11, Y15 // B = α_mid[idxB]

	MOVL $8191, DX   // LLRQMax
	MOVL $-8191, DI
	MOVQ CX, R13
	DECQ R13         // backward stage mid−1
	MOVQ R13, AX
	SHLQ $4, AX
	ADDQ AX, R11 // α row mid−1

outBoth:
	CMPQ CX, R10
	JGE  outBwd
	CMPQ R13, $3
	JL   outFwd
	PAIR(CX, Y1)
	FWDCAND
	LLRTERMS
	FWDNEXT
	PAIR(R13, Y2)
	BWDSUMS(Y9, Y2, Y3, Y7, Y8)
	VPMAXSD   Y8, Y7, Y9
	VPMOVSXWD (R11), Y3
	VPADDD    Y3, Y7, Y7 // backward t0
	VPADDD    Y3, Y8, Y8 // backward t1
	LLR2
	INCQ      CX
	ADDQ      $32, R8
	DECQ      R13
	SUBQ      $16, R11
	JMP       outBoth

outFwd:
	CMPQ CX, R10
	JGE  outDone
	PAIR(CX, Y1)
	FWDCAND
	LLRTERMS
	FWDNEXT
	LLR(CX)
	INCQ CX
	ADDQ $32, R8
	JMP  outFwd

outBwd:
	CMPQ      R13, $3
	JL        outDone
	PAIR(R13, Y1)
	BWDSUMS(Y9, Y1, Y3, Y5, Y6)
	VPMAXSD   Y6, Y5, Y9
	VPMOVSXWD (R11), Y7
	VPADDD    Y7, Y5, Y5
	VPADDD    Y7, Y6, Y6
	LLR(R13)
	DECQ      R13
	SUBQ      $16, R11
	JMP       outBwd

outDone:
	MOVQ    bv+64(FP), BX
	VMOVDQU Y9, (BX)
	VZEROUPPER
	RET

// func interleaveAVX2(pairs *int16, lsys *int16, la *int16, lpar *int16, k int)
// Writes pairs[2i] = lsys[i] + la[i] (lsys[i] when la is nil) and
// pairs[2i+1] = lpar[i] for i < k, eight stages per step; k is a multiple
// of 8.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-40
	MOVQ pairs+0(FP), DI
	MOVQ lsys+8(FP), SI
	MOVQ la+16(FP), DX
	MOVQ lpar+24(FP), R8
	MOVQ k+32(FP), CX
	XORQ AX, AX
	TESTQ DX, DX
	JZ   ilNoLA

ilLA:
	CMPQ        AX, CX
	JGE         ilDone
	VMOVDQU     (SI)(AX*2), X0
	VPADDW      (DX)(AX*2), X0, X0
	VMOVDQU     (R8)(AX*2), X1
	VPUNPCKLWD  X1, X0, X2
	VPUNPCKHWD  X1, X0, X3
	VMOVDQU     X2, (DI)
	VMOVDQU     X3, 16(DI)
	ADDQ        $8, AX
	ADDQ        $32, DI
	JMP         ilLA

ilNoLA:
	CMPQ        AX, CX
	JGE         ilDone
	VMOVDQU     (SI)(AX*2), X0
	VMOVDQU     (R8)(AX*2), X1
	VPUNPCKLWD  X1, X0, X2
	VPUNPCKHWD  X1, X0, X3
	VMOVDQU     X2, (DI)
	VMOVDQU     X3, 16(DI)
	ADDQ        $8, AX
	ADDQ        $32, DI
	JMP         ilNoLA

ilDone:
	RET
