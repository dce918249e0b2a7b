package fft

import "math/bits"

// kernelsEnabled gates dispatch of the power-of-two Plan to the AVX2
// kernels in kernels_amd64.s and of the mixed-radix smoothPlan to those in
// smooth_amd64.s. They execute the scalar transform's butterflies on two
// complex128 per register with the same multiplies, adds and subtracts in
// the same order and no fused multiply-add, so every output bit matches
// (TestKernelsMatchScalar, TestSmoothKernelsMatchScalar); only the speed
// differs. Which one runs is
// decided by what the code can observe: kernelsHW, the CPUID probe. Tests
// clear the variable to run the scalar transform on AVX2 hardware.
var kernelsEnabled = kernelsHW

// minKernelSize is the smallest transform the kernels handle: every kernel
// processes two blocks (or two adjacent j) per iteration.
const minKernelSize = 8

// passTable lays the twiddles of one direction out in the order the kernels
// consume them, so each pass reads one contiguous run instead of walking tw
// with a per-pass stride. Passes appear in schedule order. The first pass
// of an even stage count (h = 1) stores its three twiddles tw[0], tw[0],
// tw[n/4]; every pass with h >= 2 stores, per pair of adjacent j, the six
// values wA[j], wA[j+1], wB[j], wB[j+1], wB[j+h], wB[j+1+h], with wA =
// tw[j·stepA] and wB = tw[j·stepB] exactly as transform indexes them. The
// entries are copies, not recomputed, so they carry the same bits.
func passTable(n int, tw []complex128) []complex128 {
	out := make([]complex128, 0, n)
	size := 2
	if bits.TrailingZeros(uint(n))&1 == 1 {
		size = 4 // the peeled size-2 stage has no twiddles
	}
	for ; size < n; size <<= 2 {
		h := size >> 1
		stepA := n / size
		stepB := stepA >> 1
		if h == 1 {
			out = append(out, tw[0], tw[0], tw[stepB])
			continue
		}
		for j := 0; j < h; j += 2 {
			out = append(out,
				tw[j*stepA], tw[(j+1)*stepA],
				tw[j*stepB], tw[(j+1)*stepB],
				tw[(j+h)*stepB], tw[(j+1+h)*stepB])
		}
	}
	return out
}
