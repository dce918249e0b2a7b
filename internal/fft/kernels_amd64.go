package fft

import (
	"math/bits"

	"rtopex/internal/cpu"
)

// kernelsHW reports hardware support for the AVX2 kernels. Split from
// kernelsEnabled so tests can force the scalar transform.
var kernelsHW = cpu.AVX2

// Kernel bindings (kernels_amd64.s). Pointers address the first element of
// slices whose lengths the caller has checked against n.

//go:noescape
func passAVX2(x, tw *complex128, n, h int)

//go:noescape
func first4GatherAVX2(dst, src *complex128, rev *int, tw *complex128, n int)

//go:noescape
func first4AVX2(x, tw *complex128, n int)

//go:noescape
func first2GatherAVX2(dst, src *complex128, rev *int, n int)

//go:noescape
func first2AVX2(x *complex128, n int)

// kernelTransform is (*Plan).transform on the kernels: src gathered into
// dst in bit-reversed order by the first pass, or dst permuted in place
// when src is nil, then one kernel call per remaining fused stage pair.
func (p *Plan) kernelTransform(dst, src []complex128, inverse bool) {
	n := p.n
	tab := p.passTw
	if inverse {
		tab = p.passTwInv
	}
	if src == nil {
		p.permute(dst)
	}
	// First pass: the peeled size-2 stage of an odd stage count (no
	// twiddles), else the h = 1 stage pair and its three table entries.
	size := 4
	switch odd := bits.TrailingZeros(uint(n))&1 == 1; {
	case odd && src == nil:
		first2AVX2(&dst[0], n)
	case odd:
		first2GatherAVX2(&dst[0], &src[0], &p.rev[0], n)
	default:
		if src == nil {
			first4AVX2(&dst[0], &tab[0], n)
		} else {
			first4GatherAVX2(&dst[0], &src[0], &p.rev[0], &tab[0], n)
		}
		tab = tab[3:]
		size = 8
	}
	for ; size < n; size <<= 2 {
		h := size >> 1
		passAVX2(&dst[0], &tab[0], n, h)
		tab = tab[3*h:]
	}
}

// Mixed-radix combine passes (smooth_amd64.s): for each of blocks blocks of
// r·m elements at x, the radix-r combine of smoothPlan.forwardInto for the
// k pairs (0,1), (2,3), … below m; an odd m leaves k = m−1 to the caller.
// tw is the level's r·m twiddle table.

//go:noescape
func combine2AVX2(x, tw *complex128, m, blocks int)

//go:noescape
func combine3AVX2(x, tw *complex128, m, blocks int)

//go:noescape
func combine4AVX2(x, tw *complex128, m, blocks int)

//go:noescape
func combine5AVX2(x, tw *complex128, m, blocks int)

// Leaf passes (smooth_amd64.s): the r-point DFTs of 2·pairs leaves, leaf b
// reading src[off[b]+i·s] for i < r and writing dst[b·r:(b+1)·r].

//go:noescape
func leaf2AVX2(dst, src *complex128, off *int, s, pairs int)

//go:noescape
func leaf3AVX2(dst, src *complex128, off *int, s, pairs int)

//go:noescape
func leaf4AVX2(dst, src *complex128, off *int, s, pairs int)

//go:noescape
func leaf5AVX2(dst, src *complex128, off *int, s, pairs int)

// kernelForward is forwardInto turned inside out: instead of recursing, it
// runs every leaf DFT (reading src at leafOff), then each level's combine
// over all of that level's blocks, deepest level first. Each output is the
// same sequence of operations on the same operands as in the recursion,
// only evaluated in another order, so the bits match. A last unpaired leaf
// and the k an odd m leaves over run in Go, with the scalar expressions.
func (p *smoothPlan) kernelForward(dst, src []complex128) {
	last := len(p.levels) - 1
	r := p.levels[last].r
	s := p.n / r
	leaves := len(p.leafOff)
	if pairs := leaves / 2; pairs > 0 {
		d, x, off := &dst[0], &src[0], &p.leafOff[0]
		switch r {
		case 2:
			leaf2AVX2(d, x, off, s, pairs)
		case 3:
			leaf3AVX2(d, x, off, s, pairs)
		case 4:
			leaf4AVX2(d, x, off, s, pairs)
		case 5:
			leaf5AVX2(d, x, off, s, pairs)
		}
	}
	if leaves&1 == 1 {
		b := leaves - 1
		out, in := dst[b*r:], src[p.leafOff[b]:]
		switch r {
		case 2:
			y0, y1 := in[0], in[s]
			out[0], out[1] = y0+y1, y0-y1
		case 3:
			dft3(out, 1, in[0], in[s], in[2*s])
		case 4:
			dft4(out, 1, in[0], in[s], in[2*s], in[3*s])
		case 5:
			dft5(out, 1, in[0], in[s], in[2*s], in[3*s], in[4*s])
		}
	}
	for l := last - 1; l >= 0; l-- {
		L := p.levels[l]
		span := L.r * L.m
		blocks := p.n / span
		if L.m >= 2 {
			x, tw := &dst[0], &L.tw[0]
			switch L.r {
			case 2:
				combine2AVX2(x, tw, L.m, blocks)
			case 3:
				combine3AVX2(x, tw, L.m, blocks)
			case 4:
				combine4AVX2(x, tw, L.m, blocks)
			case 5:
				combine5AVX2(x, tw, L.m, blocks)
			}
		}
		if L.m&1 == 1 {
			for b := 0; b < blocks; b++ {
				combineOne(dst[b*span:(b+1)*span], L, L.m-1)
			}
		}
	}
}

// combineOne is one k of forwardInto's combine loop on the block x.
func combineOne(x []complex128, L smoothLevel, k int) {
	m, tw := L.m, L.tw
	switch L.r {
	case 2:
		y0 := x[k]
		y1 := x[m+k] * tw[m+k]
		x[k], x[m+k] = y0+y1, y0-y1
	case 3:
		dft3(x[k:], m, x[k], x[m+k]*tw[m+k], x[2*m+k]*tw[2*m+k])
	case 4:
		dft4(x[k:], m, x[k], x[m+k]*tw[m+k], x[2*m+k]*tw[2*m+k], x[3*m+k]*tw[3*m+k])
	case 5:
		dft5(x[k:], m, x[k], x[m+k]*tw[m+k], x[2*m+k]*tw[2*m+k],
			x[3*m+k]*tw[3*m+k], x[4*m+k]*tw[4*m+k])
	}
}
