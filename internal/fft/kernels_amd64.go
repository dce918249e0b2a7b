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
