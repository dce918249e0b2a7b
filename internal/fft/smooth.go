package fft

import (
	"fmt"
	"math"
)

// smoothPlan is a mixed-radix decimation-in-time FFT for 5-smooth sizes
// (n = 2^a·3^b·5^c). LTE fixes the SC-FDMA transform-precoding length to
// 12·nPRB with 5-smooth nPRB (TS 36.211 §5.3.3), so every despreading size
// the uplink chain meets lands here instead of on Bluestein's three padded
// power-of-two transforms — for the 10 MHz chain's 600-point IDFT that is
// the difference between one 600-point pass and three 2048-point ones.
//
// The recursion is the textbook one: n = r·m splits the input into r
// sequences decimated by r, each transformed recursively, then an r-point
// butterfly with twiddles e^{-2πi·q·k/n} recombines them. Only the forward
// direction is implemented; the package-level inverse goes through the
// conjugation identity in IDFTInto, which is direction-agnostic.
type smoothPlan struct {
	n      int
	levels []smoothLevel
	// leafOff[b] is the src offset of leaf sub-transform b (the one whose
	// outputs land at dst[b·r:], r the leaf radix) for the AVX2 schedule
	// in kernelForward; nil where the kernels cannot run.
	leafOff []int
}

// smoothLevel describes one recursion depth: all sub-transforms at a depth
// share a length n_l = r·m and therefore one twiddle table.
type smoothLevel struct {
	r, m int
	// tw[q*m+k] = e^{-2πi·q·k/(r·m)} for q in [0,r), k in [0,m); the q=0 row
	// is all ones and skipped by the combine kernels.
	tw []complex128
}

// smoothFactors returns the radix schedule for a 5-smooth n, or nil if n has
// another prime factor. Fours are peeled before twos so the cheap radix-4
// kernel handles power-of-two parts.
func smoothFactors(n int) []int {
	if n < 2 {
		return nil
	}
	var fs []int
	for n%5 == 0 {
		fs = append(fs, 5)
		n /= 5
	}
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	for n%3 == 0 {
		fs = append(fs, 3)
		n /= 3
	}
	for n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	if n != 1 {
		return nil
	}
	return fs
}

// isSmooth reports whether n is 5-smooth and at least 2. Unlike
// smoothFactors it never allocates — it runs on every DFTInto/WorkLen call.
func isSmooth(n int) bool {
	if n < 2 {
		return false
	}
	for n%2 == 0 {
		n /= 2
	}
	for n%3 == 0 {
		n /= 3
	}
	for n%5 == 0 {
		n /= 5
	}
	return n == 1
}

func newSmoothPlan(n int) *smoothPlan {
	fs := smoothFactors(n)
	if fs == nil {
		panic(fmt.Sprintf("fft: %d is not 5-smooth", n))
	}
	p := &smoothPlan{n: n}
	sub := n
	for _, r := range fs {
		m := sub / r
		lv := smoothLevel{r: r, m: m, tw: make([]complex128, r*m)}
		for q := 0; q < r; q++ {
			for k := 0; k < m; k++ {
				ang := -2 * math.Pi * float64(q) * float64(k) / float64(sub)
				lv.tw[q*m+k] = complex(math.Cos(ang), math.Sin(ang))
			}
		}
		p.levels = append(p.levels, lv)
		sub = m
	}
	if kernelsHW {
		p.leafOff = p.leafOffsets()
	}
	return p
}

// leafOffsets walks the recursion of forwardInto and records, in output
// order, where each leaf sub-transform starts reading src.
func (p *smoothPlan) leafOffsets() []int {
	var offs []int
	var walk func(lvl, off, stride int)
	walk = func(lvl, off, stride int) {
		L := p.levels[lvl]
		if L.m == 1 {
			offs = append(offs, off)
			return
		}
		for q := 0; q < L.r; q++ {
			walk(lvl+1, off+q*stride, stride*L.r)
		}
	}
	walk(0, 0, 1)
	return offs
}

// forward computes the DFT of src into dst, which must not overlap, on the
// AVX2 kernels where the plan carries their table and on the scalar
// recursion otherwise. Both produce the same bits.
func (p *smoothPlan) forward(dst, src []complex128) {
	if kernelsEnabled && p.leafOff != nil {
		p.kernelForward(dst, src)
		return
	}
	p.forwardInto(dst, src, 0, 1)
}

// forwardInto computes the DFT of the n strided samples src[0], src[stride],
// … into dst[0..n). dst must not alias src; the package-level entry points
// guarantee that by staging through scratch.
func (p *smoothPlan) forwardInto(dst, src []complex128, lvl, stride int) {
	L := p.levels[lvl]
	r, m := L.r, L.m
	if m == 1 {
		// Leaf: the combine below IS the r-point DFT (all twiddles are 1),
		// reading the strided sources directly.
		switch r {
		case 2:
			y0, y1 := src[0], src[stride]
			dst[0], dst[1] = y0+y1, y0-y1
		case 3:
			dft3(dst, 1, src[0], src[stride], src[2*stride])
		case 4:
			dft4(dst, 1, src[0], src[stride], src[2*stride], src[3*stride])
		case 5:
			dft5(dst, 1, src[0], src[stride], src[2*stride], src[3*stride], src[4*stride])
		}
		return
	}
	for q := 0; q < r; q++ {
		p.forwardInto(dst[q*m:(q+1)*m], src[q*stride:], lvl+1, stride*r)
	}
	tw := L.tw
	switch r {
	case 2:
		for k := 0; k < m; k++ {
			y0 := dst[k]
			y1 := dst[m+k] * tw[m+k]
			dst[k], dst[m+k] = y0+y1, y0-y1
		}
	case 3:
		for k := 0; k < m; k++ {
			dft3(dst[k:], m, dst[k], dst[m+k]*tw[m+k], dst[2*m+k]*tw[2*m+k])
		}
	case 4:
		for k := 0; k < m; k++ {
			dft4(dst[k:], m,
				dst[k], dst[m+k]*tw[m+k], dst[2*m+k]*tw[2*m+k], dst[3*m+k]*tw[3*m+k])
		}
	case 5:
		for k := 0; k < m; k++ {
			dft5(dst[k:], m,
				dst[k], dst[m+k]*tw[m+k], dst[2*m+k]*tw[2*m+k],
				dst[3*m+k]*tw[3*m+k], dst[4*m+k]*tw[4*m+k])
		}
	}
}

// Small-radix forward DFT codelets. Each writes r outputs at the given
// stride. Constants are the usual cos/sin(2πk/r) pairs; the forward twiddle
// sign convention (e^{-2πi…}) puts the minus on the imaginary parts.

func dft3(out []complex128, stride int, y0, y1, y2 complex128) {
	const (
		c3 = -0.5               // cos(2π/3)
		s3 = 0.8660254037844386 // sin(2π/3)
	)
	t := y1 + y2
	d := y1 - y2
	// i·d rotated: i·(a+bi) = -b + ai, scaled by sin term.
	rot := complex(imag(d)*s3, -real(d)*s3) // -i·s3·d
	u := y0 + complex(c3*real(t), c3*imag(t))
	out[0] = y0 + t
	out[stride] = u + rot
	out[2*stride] = u - rot
}

func dft4(out []complex128, stride int, y0, y1, y2, y3 complex128) {
	t0 := y0 + y2
	t1 := y0 - y2
	t2 := y1 + y3
	d := y1 - y3
	rot := complex(imag(d), -real(d)) // -i·d
	out[0] = t0 + t2
	out[stride] = t1 + rot
	out[2*stride] = t0 - t2
	out[3*stride] = t1 - rot
}

func dft5(out []complex128, stride int, y0, y1, y2, y3, y4 complex128) {
	const (
		c51 = 0.30901699437494745 // cos(2π/5)
		s51 = 0.9510565162951535  // sin(2π/5)
		c52 = -0.8090169943749475 // cos(4π/5)
		s52 = 0.5877852522924731  // sin(4π/5)
	)
	t1 := y1 + y4
	t2 := y2 + y3
	d1 := y1 - y4
	d2 := y2 - y3
	out[0] = y0 + t1 + t2

	a1 := y0 + complex(c51*real(t1)+c52*real(t2), c51*imag(t1)+c52*imag(t2))
	a2 := y0 + complex(c52*real(t1)+c51*real(t2), c52*imag(t1)+c51*imag(t2))
	// b1 = s51·d1 + s52·d2, b2 = s52·d1 − s51·d2; outputs pair as a ∓ i·b.
	b1 := complex(s51*real(d1)+s52*real(d2), s51*imag(d1)+s52*imag(d2))
	b2 := complex(s52*real(d1)-s51*real(d2), s52*imag(d1)-s51*imag(d2))
	r1 := complex(imag(b1), -real(b1)) // -i·b1
	r2 := complex(imag(b2), -real(b2)) // -i·b2
	out[stride] = a1 + r1
	out[2*stride] = a2 + r2
	out[3*stride] = a2 - r2
	out[4*stride] = a1 - r1
}
