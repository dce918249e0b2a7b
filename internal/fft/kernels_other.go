//go:build !amd64

package fft

// Non-amd64 builds have no kernels; every plan runs the scalar transform.
const kernelsHW = false

func (p *Plan) kernelTransform(dst, src []complex128, inverse bool) {
	panic("fft: kernelTransform without hardware support")
}

func (p *smoothPlan) kernelForward(dst, src []complex128) {
	panic("fft: kernelForward without hardware support")
}
