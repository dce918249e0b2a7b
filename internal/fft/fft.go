// Package fft implements the discrete Fourier transforms needed by the LTE
// uplink chain: an iterative radix-2 FFT for the OFDM (de)modulation sizes
// (powers of two: 512, 1024, 2048), a mixed-radix (2/3/4/5) FFT for the
// 5-smooth SC-FDMA transform precoding sizes (12·nPRB, e.g. 600 for 50
// PRBs), and Bluestein's chirp-z algorithm as the fallback for any other
// length.
//
// On amd64 with AVX2 the first two run on bit-identical float64 kernels
// (kernels.go). The radix-2 Plan executes its fused stage pairs from
// per-pass twiddle tables (kernels_amd64.s). The mixed-radix plan runs its
// recursion level by level instead of depth first: one gather pass does
// every leaf DFT, then one pass per level does every block's radix-r
// combine on two adjacent k per register, reading the level's twiddle rows
// where they already lie in pairs (smooth_amd64.s). Neither uses a fused
// multiply-add, so each output bit equals the scalar code's, which stays
// the reference and the path on other hosts.
//
// Conventions: Forward computes X[k] = Σ x[n]·e^{-2πi kn/N} (no scaling);
// Inverse divides by N so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan caches the twiddle factors and bit-reversal permutation for a fixed
// power-of-two size. Plans are immutable once built and safe for concurrent
// use: the transforms write only to their arguments.
type Plan struct {
	n          int
	rev        []int
	twiddle    []complex128 // e^{-2πi k / n} for k in [0, n/2)
	twiddleInv []complex128 // conjugates, so the inverse pass is branch-free

	// Per-pass contiguous copies of the two tables above for the AVX2
	// kernels (layout in passTable); nil where the kernels cannot run.
	passTw, passTwInv []complex128
}

// NewPlan returns the plan for size n, which must be a power of two >= 1.
// Plans are built once per size and shared by every caller.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a positive power of two", n)
	}
	return plans.get(n, buildPlan), nil
}

func buildPlan(n int) *Plan {
	p := &Plan{n: n, rev: make([]int, n), twiddle: make([]complex128, n/2)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	p.twiddleInv = make([]complex128, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
		p.twiddleInv[k] = complex(math.Cos(ang), -math.Sin(ang))
	}
	if kernelsHW && n >= minKernelSize {
		p.passTw = passTable(n, p.twiddle)
		p.passTwInv = passTable(n, p.twiddleInv)
	}
	return p
}

// MustPlan is NewPlan that panics on error, for static sizes.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the transform length.
func (p *Plan) Size() int { return p.n }

// Forward computes the in-place DFT of x, which must have length Size().
func (p *Plan) Forward(x []complex128) {
	p.run(x, nil, false)
}

// ForwardFrom computes the DFT of src into dst, both of length Size(),
// leaving src untouched: the bit-reversal gather reads src directly, so an
// input that lives elsewhere (a CP-stripped window of an IQ stream) is
// touched once instead of copied and then permuted. dst and src must be the
// same slice or not overlap at all. Results are bit-identical to Forward.
func (p *Plan) ForwardFrom(dst, src []complex128) {
	if len(src) != p.n {
		panic(fmt.Sprintf("fft: input length %d, plan size %d", len(src), p.n))
	}
	if len(dst) == p.n && p.n > 0 && &dst[0] == &src[0] {
		src = nil
	}
	p.run(dst, src, false)
}

// Inverse computes the in-place inverse DFT of x (scaled by 1/N).
func (p *Plan) Inverse(x []complex128) {
	p.run(x, nil, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// run transforms src into dst, or dst in place when src is nil, on the AVX2
// kernels when the plan carries their tables and on the scalar transform
// otherwise. Both produce the same bits.
func (p *Plan) run(dst, src []complex128, inverse bool) {
	if len(dst) != p.n {
		panic(fmt.Sprintf("fft: input length %d, plan size %d", len(dst), p.n))
	}
	if kernelsEnabled && p.passTw != nil {
		p.kernelTransform(dst, src, inverse)
		return
	}
	if src != nil {
		copy(dst, src)
	}
	p.transform(dst, inverse)
}

// permute applies the bit-reversal permutation in place.
func (p *Plan) permute(x []complex128) {
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// transform is the scalar reference implementation: the only definition of
// the arithmetic, which the kernels reproduce bit for bit.
func (p *Plan) transform(x []complex128, inverse bool) {
	n := p.n
	p.permute(x)
	// Iterative Cooley-Tukey butterflies, twiddle table chosen once per
	// direction (twiddleInv holds the conjugates the inverse pass needs).
	// Stages run two at a time: fusing a stage pair keeps the four involved
	// elements in registers and halves the passes over x, which dominates at
	// the OFDM sizes. An odd stage count peels the twiddle-free size-2 stage
	// first. The arithmetic per butterfly is unchanged, so results are
	// bit-identical to the single-stage schedule.
	tw := p.twiddle
	if inverse {
		tw = p.twiddleInv
	}
	size := 2
	if bits.TrailingZeros(uint(n))&1 == 1 {
		for k := 0; k < n; k += 2 {
			u, v := x[k], x[k+1]
			x[k], x[k+1] = u+v, u-v
		}
		size = 4
	}
	// Each pass covers stages size and 2·size over blocks of 2·size.
	for ; size < n; size <<= 2 {
		h := size >> 1
		stepA := n / size
		stepB := stepA >> 1
		for start := 0; start < n; start += size << 1 {
			for j := 0; j < h; j++ {
				i0 := start + j
				i1 := i0 + h
				i2 := i0 + size
				i3 := i2 + h
				wA := tw[j*stepA]
				u0, v0 := x[i0], x[i1]*wA
				u2, v2 := x[i2], x[i3]*wA
				y0, y1 := u0+v0, u0-v0
				t2 := (u2 + v2) * tw[j*stepB]
				t3 := (u2 - v2) * tw[(j+h)*stepB]
				x[i0], x[i2] = y0+t2, y0-t2
				x[i1], x[i3] = y1+t3, y1-t3
			}
		}
	}
}

// bluestein converts an arbitrary-size DFT into a convolution evaluated with
// power-of-two FFTs. Chirp tables and sub-plans are cached per DFT size.
type bluestein struct {
	n     int
	m     int // convolution FFT size, power of two >= 2n-1
	plan  *Plan
	chirp []complex128 // w[k] = e^{-iπ k²/n}
	bHat  []complex128 // FFT of the conjugate-chirp kernel
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := &bluestein{n: n, m: m, plan: MustPlan(m)}
	b.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the angle argument small and exact.
		kk := (k * k) % (2 * n)
		ang := -math.Pi * float64(kk) / float64(n)
		b.chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	bb := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := complex(real(b.chirp[k]), -imag(b.chirp[k])) // conj chirp
		bb[k] = c
		if k > 0 {
			bb[m-k] = c
		}
	}
	b.plan.Forward(bb)
	b.bHat = bb
	return b
}

func (b *bluestein) forward(x []complex128) []complex128 {
	out := make([]complex128, b.n)
	b.forwardInto(out, x, make([]complex128, b.m))
	return out
}

// forwardInto is forward with caller-provided output and scratch (len m).
// dst may alias src: src is fully consumed before dst is written.
func (b *bluestein) forwardInto(dst, src, work []complex128) {
	a := work[:b.m]
	for k := 0; k < b.n; k++ {
		a[k] = src[k] * b.chirp[k]
	}
	for k := b.n; k < b.m; k++ {
		a[k] = 0
	}
	b.plan.Forward(a)
	for i := range a {
		a[i] *= b.bHat[i]
	}
	b.plan.Inverse(a)
	for k := 0; k < b.n; k++ {
		dst[k] = a[k] * b.chirp[k]
	}
}

// DFT computes the forward DFT of x at any length: radix-2 when the length
// is a power of two, mixed-radix when it is 5-smooth, Bluestein otherwise.
// It allocates its result.
func DFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 || isSmooth(n) {
		out := make([]complex128, n)
		DFTFrom(out, x)
		return out
	}
	return bluesteins.get(n, newBluestein).forward(x)
}

// DFTFrom computes the forward DFT of src into dst without allocating or
// staging, for the lengths that need no scratch: powers of two and 5-smooth
// sizes, which include every LTE SC-FDMA despreading size 12·nPRB. dst and
// src must have that length and must not overlap. Results are bit-identical
// to DFT.
func DFTFrom(dst, src []complex128) {
	n := len(src)
	if len(dst) != n {
		panic(fmt.Sprintf("fft: DFTFrom dst length %d, src %d", len(dst), n))
	}
	switch {
	case n&(n-1) == 0:
		MustPlan(n).ForwardFrom(dst, src)
	case isSmooth(n):
		smooths.get(n, newSmoothPlan).forward(dst, src)
	default:
		panic(fmt.Sprintf("fft: DFTFrom length %d is neither a power of two nor 5-smooth", n))
	}
}

// WorkLen returns the scratch length DFTInto/IDFTInto require for size n:
// zero when n is a power of two (the transform runs in place), n itself for
// 5-smooth sizes (the mixed-radix recursion is out-of-place), otherwise the
// Bluestein convolution size.
func WorkLen(n int) int {
	if n <= 0 || n&(n-1) == 0 {
		return 0
	}
	if isSmooth(n) {
		return n
	}
	return bluesteins.get(n, newBluestein).m
}

// DFTInto computes the forward DFT of src into dst without allocating:
// dst and src must share length n, work must have WorkLen(n) entries, and
// dst may alias src. Results are bit-identical to DFT.
func DFTInto(dst, src, work []complex128) {
	n := len(src)
	if len(dst) != n {
		panic(fmt.Sprintf("fft: DFTInto dst length %d, src %d", len(dst), n))
	}
	if n == 0 {
		return
	}
	if n&(n-1) == 0 {
		MustPlan(n).ForwardFrom(dst, src)
		return
	}
	if isSmooth(n) {
		if len(work) < n {
			panic(fmt.Sprintf("fft: DFTInto work length %d, want %d", len(work), n))
		}
		// Stage through work: the recursion is out-of-place and dst may
		// alias src.
		smooths.get(n, newSmoothPlan).forward(work[:n], src)
		copy(dst, work)
		return
	}
	b := bluesteins.get(n, newBluestein)
	if len(work) < b.m {
		panic(fmt.Sprintf("fft: DFTInto work length %d, want %d", len(work), b.m))
	}
	b.forwardInto(dst, src, work)
}

// IDFTInto computes the inverse DFT (scaled by 1/N) of src into dst without
// allocating, under the same contract as DFTInto.
func IDFTInto(dst, src, work []complex128) {
	n := len(src)
	if len(dst) != n {
		panic(fmt.Sprintf("fft: IDFTInto dst length %d, src %d", len(dst), n))
	}
	if n == 0 {
		return
	}
	// IDFT(x) = conj(DFT(conj(x)))/N. A 5-smooth size stages conj(src)
	// in work and transforms it straight into dst; the others conjugate
	// into dst and transform in place.
	if n&(n-1) != 0 && isSmooth(n) {
		if len(work) < n {
			panic(fmt.Sprintf("fft: IDFTInto work length %d, want %d", len(work), n))
		}
		w := work[:n]
		for i, v := range src {
			w[i] = complex(real(v), -imag(v))
		}
		smooths.get(n, newSmoothPlan).forward(dst, w)
	} else {
		for i, v := range src {
			dst[i] = complex(real(v), -imag(v))
		}
		DFTInto(dst, dst, work)
	}
	inv := 1 / float64(n)
	for i, v := range dst {
		dst[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

// The caches below are read-mostly maps guarded by copy-on-write semantics;
// the chain uses a handful of fixed sizes (600, 1024, 2048), so contention
// is not a concern, but we still guard with a mutex for safety.
