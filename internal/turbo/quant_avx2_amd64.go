package turbo

import "rtopex/internal/cpu"

// Kernel bindings for the AVX2 stepper (quant_avx2_amd64.s). A constituent
// pass runs both kernels in turn; every pointer is the base of its
// full-length stream or scratch, indexed by trellis stage.

// inwardAVX2 steps the forward recursion over stages 3 … mid−1 from the
// α row in *av, storing int16 α rows 4 … mid, interleaved with the β-only
// backward recursion over stages k−1 … mid from the β row in *bv, storing
// each incoming int32 row β_{i+1} at beta[(i−mid)·8]. Stage i's metric
// halves are the pair pairs[2i], pairs[2i+1]. It leaves α_mid in *av and β_mid in
// *bv.
//
//go:noescape
func inwardAVX2(alpha *int16, beta *int32, pairs *int16, k int, mid int, av *[8]int32, bv *[8]int32)

// outwardAVX2 continues both chains: forward over stages mid … k−1, taking
// le[i] and hard[i] from the stage's branch candidates and the stored
// β_{i+1}, interleaved with the fused backward/LLR recursion over stages
// mid−1 … 3 on the stored α rows. It leaves β_3 in *bv. hard must be a
// valid slice (the caller substitutes scratch when decisions are not
// wanted).
//
//go:noescape
func outwardAVX2(alpha *int16, beta *int32, pairs *int16, le *int16, hard *byte, k int, mid int, av *[8]int32, bv *[8]int32)

// interleaveAVX2 writes the per-stage metric pairs pairs[2i] = lsys[i] + la[i]
// (lsys[i] when la is nil) and pairs[2i+1] = lpar[i] for i < k, a multiple of
// 8 (every QPP size is).
//
//go:noescape
func interleaveAVX2(pairs *int16, lsys *int16, la *int16, lpar *int16, k int)

// radix4HW reports hardware support for the kernels. Split from
// radix4Enabled so tests can force the scalar fallback.
var radix4HW = cpu.AVX2
