package phy

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// fftKernels is internal/fft's unexported kernel switch (see
// fft.kernelsEnabled), reached by linkname so that fft needs no exported
// test hook: the receiver-level exactness tests here run the whole chain on
// the AVX2 kernels and on the scalar transform.
//
//go:linkname fftKernels rtopex/internal/fft.kernelsEnabled
var fftKernels bool

// eachFFTPath runs f once per FFT path this host has: kernels on (only
// where the probe enabled them) and kernels off.
func eachFFTPath(t *testing.T, f func(t *testing.T)) {
	hw := fftKernels
	defer func() { fftKernels = hw }()
	if hw {
		t.Run("fft=avx2", f)
	}
	fftKernels = false
	t.Run("fft=scalar", f)
}
