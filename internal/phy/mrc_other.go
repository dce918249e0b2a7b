//go:build !amd64

package phy

// Non-amd64 builds have no kernels; every data symbol runs the scalar
// demodulator.
const kernelsHW = false

func mrcConjAVX2(in *complex128, h *[]complex128, grid *[][]complex128, l, antennas, pairs int) float64 {
	panic("phy: mrcConjAVX2 without hardware support")
}
