package turbo

import "rtopex/internal/cpu"

// Kernel bindings for the AVX2 radix-4 stepper (quant_avx2_amd64.s).

// forwardStepsAVX2 runs n unguarded forward trellis stages: stage j reads
// qg0[j]/qg1[j], renormalizes and clamps exactly like the scalar loop, and
// stores the int16 row at rows[j*8:]. The int32 state vector is carried in
// *av across the call.
//
//go:noescape
func forwardStepsAVX2(rows *int16, qg0 *int16, qg1 *int16, n int, av *[8]int32)

// backwardLLRAVX2 runs stages j = n−1 … 0 of the fused backward/LLR
// recursion over stored alpha rows, updating beta in *bv and writing le[j]
// and the hard sign bit hard[j] per stage. hard must be a valid slice (the
// caller substitutes scratch when decisions are not wanted).
//
//go:noescape
func backwardLLRAVX2(rows *int16, qg0 *int16, qg1 *int16, n int, bv *[8]int32, le *int16, hard *byte)

// radix4HW reports hardware support for the fused kernels. Split from
// radix4Enabled so tests can force the scalar fallback.
var radix4HW = cpu.AVX2
