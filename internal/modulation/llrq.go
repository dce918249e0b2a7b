package modulation

import "math"

// LLR Q-format for the fixed-point decode path.
//
// The quantized turbo decoder operates on int16 LLRs in Q9.6: a soft value x
// is represented as round(x · 2^LLRQFracBits), saturated to ±LLRQMax. The
// format is fixed here — at the boundary where LLRs are born (the demapper's
// output convention, positive ⇒ bit 0) — so every quantized consumer agrees
// on the scale without carrying it around.
//
// The numbers are chosen against the demapper's dynamic range:
//
//   - 6 fractional bits keep the quantization step (1/64 ≈ 0.016 LLR) far
//     below the soft resolution that matters near the decoding threshold,
//     where useful LLR magnitudes are a few units.
//   - The ±LLRQMax rail (≈ ±128 in LLR units, 13 value bits) is where
//     certainty saturates: an LLR of 128 is an error probability of e⁻¹²⁸ —
//     clipping above it cannot change any max-log decision. Keeping the rail
//     at 2¹³−1 instead of int16's full range leaves two bits of headroom so
//     the decoder's branch metrics (sums of a systematic LLR, an a-priori
//     LLR of the same rail, and a parity LLR) still fit in int16.
const (
	// LLRQFracBits is the number of fractional bits in the Q-format.
	LLRQFracBits = 6
	// LLRQScale converts LLR units to quantized units (2^LLRQFracBits).
	LLRQScale = 1 << LLRQFracBits
	// LLRQMax is the saturation rail: quantized LLRs lie in [-LLRQMax, LLRQMax].
	LLRQMax = 1<<13 - 1
)

// QuantizeLLR converts one float64 LLR to the fixed Q-format, rounding to
// nearest (half away from zero) and saturating at the rails. NaN maps to 0
// (no information). Rounding is add-half-then-truncate rather than
// math.Round — same result on every representable half-step, an order of
// magnitude cheaper, and this runs once per received LLR. The saturation
// uses the min/max builtins rather than compares: received LLRs mix railed
// and in-range values unpredictably, so saturation branches would
// mispredict constantly in the hottest per-LLR loop of the chain.
func QuantizeLLR(x float64) int16 {
	v := x * LLRQScale
	v = min(max(v+math.Copysign(0.5, v), -LLRQMax), LLRQMax)
	if math.IsNaN(v) { // min/max propagate NaN, so one cold branch suffices
		return 0
	}
	return int16(v)
}

// QuantizeLLRsInto quantizes src into dst (same length), element-wise per
// QuantizeLLR. It is the allocation-free boundary between the float64 soft
// chain (demap, descramble) and the int16 decode path. Where kernelsEnabled,
// the longest prefix of a multiple of 8 runs on the AVX2 kernel, which
// matches QuantizeLLR on every input (FuzzQuantizeKernelMatchesScalar).
func QuantizeLLRsInto(dst []int16, src []float64) {
	if len(dst) != len(src) {
		panic("modulation: QuantizeLLRsInto length mismatch")
	}
	i := 0
	if n := len(src) &^ 7; kernelsEnabled && n > 0 {
		quantizeAVX2(&dst[0], &src[0], n)
		i = n
	}
	for ; i < len(src); i++ {
		dst[i] = QuantizeLLR(src[i])
	}
}
