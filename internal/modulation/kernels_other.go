//go:build !amd64

package modulation

// Non-amd64 builds have no kernels; every symbol runs the scalar demapper.
const kernelsHW = false

func demapQPSKAVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts) {
	panic("modulation: demapQPSKAVX2 without hardware support")
}

func demap16AVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts) {
	panic("modulation: demap16AVX2 without hardware support")
}

func demap64AVX2(dst, sign *float64, x *complex128, pairs int, c *demapConsts) {
	panic("modulation: demap64AVX2 without hardware support")
}

func quantizeAVX2(dst *int16, src *float64, n int) {
	panic("modulation: quantizeAVX2 without hardware support")
}
