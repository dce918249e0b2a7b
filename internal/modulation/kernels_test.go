//go:build !amd64.v3

// The exactness asserted here assumes the default GOAMD64=v1: from v3 on the
// compiler may fuse the scalar demapper's multiply-adds, which the kernels
// never do.

package modulation

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"rtopex/internal/stats"
)

// withKernels runs f with the kernel dispatch forced on or off.
func withKernels(on bool, f func()) {
	old := kernelsEnabled
	kernelsEnabled = on
	defer func() { kernelsEnabled = old }()
	f()
}

func skipWithoutKernels(t testing.TB) {
	if !kernelsHW {
		t.Skip("no AVX2 on this host: the scalar demapper is the only path")
	}
}

// sameLLRs compares on IEEE bit patterns; a NaN matches any NaN.
func sameLLRs(a, b []float64) (int, bool) {
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
				return i, false
			}
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// conjOracle is what DemapConjInto promises to equal: the symbols scaled
// into a buffer, DemapInto on the scalar code, and a sign multiply.
func conjOracle(scheme Scheme, x []complex128, sign []float64, c1, c2, n0 float64) []float64 {
	y := make([]complex128, len(x))
	for i, v := range x {
		v = complex(real(v)*c1, -imag(v)*c1)
		y[i] = complex(real(v)*c2, imag(v)*c2)
	}
	var out []float64
	withKernels(false, func() { out = demap(scheme, y, n0) })
	for i := range out {
		out[i] *= sign[i]
	}
	return out
}

// checkDemapKernel requires DemapInto and DemapConjInto to give the same
// bits with the kernels on and off, and DemapConjInto to match conjOracle.
func checkDemapKernel(t *testing.T, scheme Scheme, x []complex128, n0 float64) {
	t.Helper()
	const c1 = 1.0 / 600
	c2 := math.Sqrt(600)
	sign := make([]float64, len(x)*scheme.Order())
	for i := range sign {
		sign[i] = float64(1 - 2*(i*7/3&1))
	}
	run := func(on bool) (plain, conj []float64) {
		withKernels(on, func() {
			plain = demap(scheme, x, n0)
			conj = make([]float64, len(sign))
			DemapConjInto(conj, sign, scheme, x, c1, c2, n0)
		})
		return plain, conj
	}
	wantPlain, wantConj := run(false)
	gotPlain, gotConj := run(true)
	oracle := conjOracle(scheme, x, sign, c1, c2, n0)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"DemapInto", gotPlain, wantPlain},
		{"DemapConjInto", gotConj, wantConj},
		{"scalar DemapConjInto vs oracle", wantConj, oracle},
	} {
		if i, ok := sameLLRs(c.got, c.want); !ok {
			t.Fatalf("%v n0=%v %s: LLR %d (symbol %v) = %v, want %v",
				scheme, n0, c.name, i, x[i/scheme.Order()], c.got[i], c.want[i])
		}
	}
}

// demapInputs are symbol sets that sit on every branch boundary of the
// soft-sign kernels, around it by one ulp, and on the IEEE special values.
func demapInputs(scheme Scheme) map[string][]complex128 {
	r := stats.NewRNG(uint64(scheme) + 5)
	a := map[Scheme]float64{QPSK: qpskScale, QAM16: qam16Scale, QAM64: qam64Scale}[scheme]
	var edges []float64
	for _, k := range []float64{0, 1, 2, 3, 4, 5, 6, 7, 8} {
		v := k * a
		edges = append(edges, v, -v, math.Nextafter(v, 0), math.Nextafter(v, 100), -math.Nextafter(v, 100))
	}
	edges = append(edges, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64)
	pairs := func(vals []float64) []complex128 {
		var out []complex128
		for _, re := range vals {
			for _, im := range vals[:9] {
				out = append(out, complex(re, im), complex(im, re))
			}
		}
		return out
	}
	noisy := make([]complex128, 601) // odd: the scalar tail runs too
	for i := range noisy {
		noisy[i] = complex(r.NormFloat64()*4*a, r.NormFloat64()*4*a)
	}
	return map[string][]complex128{"edges": pairs(edges), "noisy": noisy}
}

// TestDemapIntoBitIdentical is the bit-identity contract of the demap
// kernels: kernels on vs off, every scheme, boundary and special inputs,
// and noise powers that are clamped (0, −0, negative, NaN) or denormal.
func TestDemapIntoBitIdentical(t *testing.T) {
	skipWithoutKernels(t)
	for _, scheme := range allSchemes() {
		for name, x := range demapInputs(scheme) {
			for _, n0 := range []float64{0.5, 1e-3, 0, math.Copysign(0, -1), -2, math.NaN(), 5e-324, math.Inf(1)} {
				t.Run(fmt.Sprintf("%v/%s/n0=%v", scheme, name, n0), func(t *testing.T) {
					checkDemapKernel(t, scheme, x, n0)
				})
			}
		}
	}
}

// FuzzDemapKernelMatchesScalar: byte 0 picks the scheme, the next eight
// are n0's bits (any float64, so 0, −0, NaN and denormals too), and the
// rest are read as little-endian float64 (re, im) pairs.
func FuzzDemapKernelMatchesScalar(f *testing.F) {
	skipWithoutKernels(f)
	encode := func(sel byte, n0 float64, x []complex128) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{sel}, math.Float64bits(n0))
		for _, v := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
		}
		return b
	}
	for sel, scheme := range allSchemes() {
		for _, x := range demapInputs(scheme) {
			for _, n0 := range []float64{0.1, 0, math.Copysign(0, -1), math.NaN(), 5e-324} {
				f.Add(encode(byte(sel), n0, x[:min(len(x), 33)]))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		scheme := allSchemes()[int(data[0])%3]
		n0 := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		data = data[9:]
		x := make([]complex128, len(data)/16)
		for i := range x {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			x[i] = complex(re, im)
		}
		checkDemapKernel(t, scheme, x, n0)
	})
}

// checkQuantizeKernel requires QuantizeLLRsInto on the kernel to equal
// QuantizeLLR element by element.
func checkQuantizeKernel(t *testing.T, src []float64) {
	t.Helper()
	got := make([]int16, len(src))
	withKernels(true, func() { QuantizeLLRsInto(got, src) })
	for i, x := range src {
		if want := QuantizeLLR(x); got[i] != want {
			t.Fatalf("len %d: LLR %d = %v (bits %#x) quantizes to %d on the kernel, %d scalar",
				len(src), i, x, math.Float64bits(x), got[i], want)
		}
	}
}

// quantizeSpecials are the inputs where QuantizeLLR's operations can tell
// implementations apart: signed zeros, NaN, infinities, subnormals, exact
// half-steps (which round away from zero) and their neighbours, the
// ±LLRQMax rail ± half a step, and values whose scaled form overflows.
func quantizeSpecials() []float64 {
	out := []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64 / 64, math.Nextafter(0.5, 0)}
	step := 1.0 / LLRQScale
	for _, q := range []float64{0, 0.5, 1, 1.5, 2.5, 100.5, LLRQMax - 1, LLRQMax - 0.5, LLRQMax, LLRQMax + 0.5, LLRQMax + 1} {
		for _, s := range []float64{1, -1} {
			v := s * q * step
			out = append(out, v, math.Nextafter(v, 0), math.Nextafter(v, s*math.Inf(1)))
		}
	}
	return out
}

// TestQuantizeKernelMatchesScalar: every special input, and every window of
// them of lengths 0–9 starting at element offsets 0 and 1, so the kernel's
// eight-wide body, the scalar tail and unaligned sources all run.
func TestQuantizeKernelMatchesScalar(t *testing.T) {
	skipWithoutKernels(t)
	sp := quantizeSpecials()
	for off := 0; off <= 1; off++ {
		checkQuantizeKernel(t, sp[off:])
		for n := 0; n <= 9; n++ {
			for start := off; start+n <= len(sp); start += 2 {
				checkQuantizeKernel(t, sp[start:start+n])
			}
		}
	}
	r := stats.NewRNG(11)
	noisy := make([]float64, 1001)
	for i := range noisy {
		noisy[i] = r.NormFloat64() * 40
	}
	checkQuantizeKernel(t, noisy)
}

// FuzzQuantizeKernelMatchesScalar reads the input as little-endian float64
// bit patterns, so the fuzzer reaches every NaN payload, subnormal and
// rounding boundary.
func FuzzQuantizeKernelMatchesScalar(f *testing.F) {
	skipWithoutKernels(f)
	var seed []byte
	for _, v := range quantizeSpecials() {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add(seed[8 : 8*9])
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkQuantizeKernel(t, src)
	})
}

// BenchmarkDemap64QAM demaps one 50-PRB subframe of 64-QAM REs at 15 dB
// SNR, where the soft-sign branches are data-dependent, on both paths.
func BenchmarkDemap64QAM(b *testing.B) {
	r := stats.NewRNG(6)
	bitsIn := make([]byte, 6*7200)
	for i := range bitsIn {
		bitsIn[i] = byte(r.Intn(2))
	}
	syms := Map(QAM64, bitsIn)
	for i := range syms {
		syms[i] += complex(0.12*r.NormFloat64(), 0.12*r.NormFloat64())
	}
	llrs := make([]float64, len(bitsIn))
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("kernels=%v", on), func(b *testing.B) {
			withKernels(on && kernelsHW, func() {
				b.ReportAllocs()
				for b.Loop() {
					DemapInto(llrs, QAM64, syms, 0.03)
				}
			})
		})
	}
}
