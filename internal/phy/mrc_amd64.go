package phy

import "rtopex/internal/cpu"

// kernelsHW reports hardware support for the AVX2 demod kernel. Split from
// kernelsEnabled so tests can force the scalar demodulator.
var kernelsHW = cpu.AVX2

// mrcConjAVX2 is demodSymbol's pass in (mrc_amd64.s) for subcarriers
// [0, 2·pairs): the antenna-major MRC accumulation of conj(h)·y and |h|²
// over h[a] and grid[a][l] for a < antennas, the clamped reciprocal of the
// weight, and the conjugated equalized value conj(eq·inv) stored in in[k].
// It returns the sum of the reciprocals, added in subcarrier order.
//
//go:noescape
func mrcConjAVX2(in *complex128, h *[]complex128, grid *[][]complex128, l, antennas, pairs int) float64
