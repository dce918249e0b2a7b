package phy

import (
	"math"
	"testing"
	_ "unsafe" // for go:linkname

	"rtopex/internal/channel"
)

// fftKernels, demapKernels and turboKernels are the unexported kernel
// switches of internal/fft, internal/modulation (see their kernelsEnabled)
// and internal/turbo (radix4Enabled), reached by linkname so that no
// package needs an exported test hook: the receiver-level exactness tests
// here run the whole chain on the AVX2 kernels and on the scalar code.
//
//go:linkname fftKernels rtopex/internal/fft.kernelsEnabled
var fftKernels bool

//go:linkname demapKernels rtopex/internal/modulation.kernelsEnabled
var demapKernels bool

//go:linkname turboKernels rtopex/internal/turbo.radix4Enabled
var turboKernels bool

// eachKernelPath runs f once per path this host has: the fft, modulation,
// turbo and phy kernels all on (only where the probe enabled them), then
// all off. The subtests keep the names fft=avx2 and fft=scalar that the
// tests reported when the FFT was the only stage with kernels.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	hw := [4]bool{fftKernels, demapKernels, turboKernels, kernelsEnabled}
	set := func(v [4]bool) { fftKernels, demapKernels, turboKernels, kernelsEnabled = v[0], v[1], v[2], v[3] }
	defer set(hw)
	if hw[0] || hw[1] || hw[2] || hw[3] {
		t.Run("fft=avx2", f)
	}
	set([4]bool{})
	t.Run("fft=scalar", f)
}

// TestDemodKernelMatchesScalar compares the codeword LLRs bit for bit
// between the two kernel paths for 1–3 antennas and every modulation
// order, with the noise power given and estimated blind, and on an all-zero
// input whose channel estimate is zero, so every MRC weight is clamped.
func TestDemodKernelMatchesScalar(t *testing.T) {
	if !kernelsHW {
		t.Skip("no AVX2 on this host: the scalar demodulator is the only path")
	}
	for _, mcs := range []int{5, 16, 27} {
		for antennas := 1; antennas <= 3; antennas++ {
			cfg := testConfig(mcs, antennas)
			tx, err := NewTransmitter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wave, err := tx.Transmit(randomPayload(t, tx, uint64(mcs*10+antennas)))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := channel.New(10, antennas, uint64(mcs))
			if err != nil {
				t.Fatal(err)
			}
			iq, _ := ch.Apply(wave)
			zeros := make([][]complex128, antennas)
			for a := range zeros {
				zeros[a] = make([]complex128, len(iq[a]))
			}
			for _, in := range []struct {
				name string
				iq   [][]complex128
				n0   float64
			}{{"channel", iq, ch.N0()}, {"blind n0", iq, 0}, {"zero input", zeros, ch.N0()}} {
				var llrs [2][]float64
				eachKernelPath(t, func(t *testing.T) {
					rx, err := NewReceiver(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rx.Process(in.iq, in.n0); err != nil {
						t.Fatal(err)
					}
					i := 1
					if kernelsEnabled {
						i = 0
					}
					llrs[i] = append([]float64(nil), rx.llrs...)
				})
				for i, want := range llrs[1] {
					got := llrs[0][i]
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("mcs=%d ant=%d %s: LLR %d kernel %v scalar %v", mcs, antennas, in.name, i, got, want)
					}
				}
			}
		}
	}
}
