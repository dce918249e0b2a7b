package modulation

// kernelsEnabled gates dispatch of the demappers to the AVX2 kernels in
// demap_amd64.s, and of QuantizeLLRsInto to the one in llrq_amd64.s. The
// demap kernels evaluate, per I or Q component, every branch of
// softSign16/softSign64 with the scalar code's operations in its order and
// select the live one with compares and blends, so every LLR bit matches
// demapScalar (FuzzDemapKernelMatchesScalar); only the speed differs, most
// on noisy 64-QAM, where the scalar branches mispredict. Which one runs is
// decided by kernelsHW, the CPUID probe; tests clear the variable to run
// the scalar code on AVX2 hardware.
var kernelsEnabled = kernelsHW

// demapConsts carries the per-call constants of a demap kernel, each
// broadcast to the four lanes of a YMM register (offsets in demap_amd64.s).
// The values are computed here exactly as demapScalar computes them.
type demapConsts struct {
	pre   [4]float64 // re, im, re, im factors of the first multiply
	post  [4]float64 // the second multiply
	gain  [4]float64 // QPSK: g; QAM: g·a
	scale [4]float64 // QPSK: qpskScale
	a     [4]float64 // a, 2a, 3a, 4a, 6a for the QAM scale a
	a2    [4]float64
	a3    [4]float64
	a4    [4]float64
	a6    [4]float64
}

func broadcast(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// demapKernel demaps the longest even prefix of x on the kernels, symbol i
// being complex(real(x[i])·re·post, imag(x[i])·im·post) with both products
// rounded in turn, multiplies the LLRs by sign when it is non-nil, and
// returns how many symbols it did. g is demapGain's.
func demapKernel(dst, sign []float64, scheme Scheme, x []complex128, re, im, post, g float64) int {
	n := len(x) &^ 1
	if n == 0 {
		return 0
	}
	var sp *float64
	if sign != nil {
		sp = &sign[0]
	}
	c := demapConsts{pre: [4]float64{re, im, re, im}, post: broadcast(post)}
	switch scheme {
	case QPSK:
		c.gain, c.scale = broadcast(g), broadcast(qpskScale)
		demapQPSKAVX2(&dst[0], sp, &x[0], n/2, &c)
	case QAM16:
		a := qam16Scale
		c.gain, c.a, c.a2 = broadcast(g*a), broadcast(a), broadcast(2*a)
		demap16AVX2(&dst[0], sp, &x[0], n/2, &c)
	case QAM64:
		a := qam64Scale
		c.gain, c.a, c.a2, c.a3 = broadcast(g*a), broadcast(a), broadcast(2*a), broadcast(3*a)
		c.a4, c.a6 = broadcast(4*a), broadcast(6*a)
		demap64AVX2(&dst[0], sp, &x[0], n/2, &c)
	}
	return n
}
