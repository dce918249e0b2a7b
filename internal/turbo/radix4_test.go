package turbo

import (
	"slices"
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/stats"
)

// decodeOutputs is what one decode leaves behind: the result, deep-copied,
// and the state of the last passes — both extrinsic buffers and decoder 2's
// interleaved-domain hard decisions.
type decodeOutputs struct {
	res       Result
	qle1, qle []int16
	hardI     []byte
}

// decodeKernels runs one decode with the AVX2 kernels switched on or off and
// deep-copies its outputs, so comparisons survive decoder reuse.
func decodeKernels(t testing.TB, kernels bool, k, maxIter int, s [][]float64, check func([]byte) bool) decodeOutputs {
	t.Helper()
	old := radix4Enabled
	radix4Enabled = kernels
	defer func() { radix4Enabled = old }()
	dec, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	dec.MaxIterations = maxIter
	dec.PrecheckRaw = false // force the trellis, not the raw shortcut
	res := dec.Decode(s[0], s[1], s[2], check)
	res.Bits = slices.Clone(res.Bits)
	return decodeOutputs{res, slices.Clone(dec.qle1), slices.Clone(dec.qle), slices.Clone(dec.qhardI)}
}

// requireKernelsMatchScalar is the bit-identity contract between the two
// steppers: the AVX2 kernels must reproduce the scalar stepper exactly —
// same hard decisions, same iteration count, same OK verdict, and the same
// extrinsics and decoder-2 decisions out of the last passes — with and
// without an early-termination check.
func requireKernelsMatchScalar(t testing.TB, k, maxIter int, s [][]float64, check func([]byte) bool, label string) {
	t.Helper()
	for _, chk := range []func([]byte) bool{nil, check} {
		sw := decodeKernels(t, false, k, maxIter, s, chk)
		hw := decodeKernels(t, true, k, maxIter, s, chk)
		if d := bits.HammingDistance(sw.res.Bits, hw.res.Bits); d != 0 {
			t.Fatalf("K=%d %s check=%v: kernels differ from scalar in %d bits", k, label, chk != nil, d)
		}
		if sw.res.Iterations != hw.res.Iterations || sw.res.OK != hw.res.OK {
			t.Fatalf("K=%d %s check=%v: (it=%d ok=%v) kernels vs (it=%d ok=%v) scalar",
				k, label, chk != nil, hw.res.Iterations, hw.res.OK, sw.res.Iterations, sw.res.OK)
		}
		for _, c := range []struct {
			name      string
			got, want []int16
		}{{"decoder-1 extrinsic", hw.qle1, sw.qle1}, {"decoder-2 extrinsic", hw.qle, sw.qle}} {
			for i := range c.want {
				if c.got[i] != c.want[i] {
					t.Fatalf("K=%d %s check=%v: %s[%d] = %d on the kernels, %d scalar",
						k, label, chk != nil, c.name, i, c.got[i], c.want[i])
				}
			}
		}
		if d := bits.HammingDistance(sw.hardI, hw.hardI); d != 0 {
			t.Fatalf("K=%d %s check=%v: decoder-2 decisions differ in %d bits", k, label, chk != nil, d)
		}
	}
}

func skipWithoutKernels(t testing.TB) {
	if !radix4HW {
		t.Skip("no AVX2 on this host: the scalar stepper is the only one, nothing to compare")
	}
}

// TestRadix4DifferentialGrid runs the contract across block lengths (spanning
// both QPP table regimes, halves of odd and even length on either side of
// the kernels' meeting point K/2, and K = 40/48, where a half is barely
// longer than the 3-step guards),
// SNRs from railed-clean through the waterfall to noise-dominated, and seeds;
// then across all 188 QPP sizes with the inputs that stress the fixed-point
// edges: every LLR on the ±LLRQMax rail with signs that form no codeword (so
// every branch metric saturates and the iterations never settle), and the
// punctured head. Run under -race in CI like every test; the decoders here
// are independent, so the value of -race is catching kernel stores that stray
// outside their scratch.
func TestRadix4DifferentialGrid(t *testing.T) {
	skipWithoutKernels(t)
	for _, k := range []int{40, 104, 512, 1056, 2048, 5312, 6144} {
		for _, snr := range []float64{-5, -2, 8} {
			for seed := uint64(0); seed < 3; seed++ {
				r := stats.NewRNG(100*seed + uint64(k))
				in := randomBlock(r, k)
				streams, _ := EncodeStreams(in)
				s := noisyStreams(r, streams, snr)
				check := func(b []byte) bool { return bits.HammingDistance(b, in) == 0 }
				requireKernelsMatchScalar(t, k, 6, s, check, "noisy")
			}
		}
	}
	for _, k := range ValidBlockSizes() {
		r := stats.NewRNG(uint64(k))
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		check := func(b []byte) bool { return bits.HammingDistance(b, in) == 0 }
		railed := make([][]float64, 3)
		for j := range railed {
			railed[j] = make([]float64, k+4)
			for i := range railed[j] {
				railed[j][i] = 1e6 * (1 - 2*float64(r.Intn(2)))
			}
		}
		requireKernelsMatchScalar(t, k, 4, railed, check, "railed")
		requireKernelsMatchScalar(t, k, 4, puncturedHead(streams), check, "punctured-head")
	}
}

// FuzzKernelsMatchScalar exposes the same contract to arbitrary soft inputs:
// LLR i of stream j is gain·int8(data[…]), so the fuzzer reaches zeros, the
// rail (large gain), sub-LSB values (small gain) and non-finite LLRs. The
// check accepts about one decision vector in four, which moves the early
// termination across passes. The seed corpus runs under plain `go test`.
func FuzzKernelsMatchScalar(f *testing.F) {
	skipWithoutKernels(f)
	sizes := ValidBlockSizes()
	r := stats.NewRNG(84)
	for _, seed := range []struct {
		kIdx uint16
		gain float64
		n    int
	}{
		{0, 0.25, 132},                 // K=40, one byte per LLR
		{1, 1e4, 7},                    // K=48 railed, short cycle
		{60, 0.001, 64},                // sub-LSB magnitudes
		{uint16(len(sizes) - 1), 1, 9}, // K=6144
	} {
		data := make([]byte, seed.n)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		f.Add(seed.kIdx, seed.gain, data)
	}
	// The punctured head of TestQuantSentinelPuncturedHead at K=40: zeros,
	// then the rail, then moderate values.
	head := make([]byte, 44)
	for i := range head {
		switch {
		case i < 6:
			head[i] = 0
		case i < 12:
			head[i] = 0x80 // −128·gain: railed
		default:
			head[i] = byte(1 + r.Intn(8))
		}
	}
	f.Add(uint16(0), 100.0, head)

	f.Fuzz(func(t *testing.T, kIdx uint16, gain float64, data []byte) {
		if len(data) == 0 {
			return
		}
		k := sizes[int(kIdx)%len(sizes)]
		s := make([][]float64, 3)
		for j := range s {
			s[j] = make([]float64, k+4)
			for i := range s[j] {
				s[j][i] = gain * float64(int8(data[(j*(k+4)+i)%len(data)]))
			}
		}
		check := func(b []byte) bool {
			ones := 0
			for _, v := range b {
				ones += int(v)
			}
			return ones%4 == 0
		}
		requireKernelsMatchScalar(t, k, 3, s, check, "fuzz")
	})
}

// TestRadix4ScalarFallbackIdentical covers the dispatch arm hardware tests
// can't reach on AVX2 machines: with the kernels disabled, a decoder must
// silently produce the same bits through the scalar stepper.
func TestRadix4ScalarFallbackIdentical(t *testing.T) {
	const k = 1056
	r := stats.NewRNG(81)
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := noisyStreams(r, streams, 0)
	hw := decodeKernels(t, radix4HW, k, 4, s, nil).res
	sw := decodeKernels(t, false, k, 4, s, nil).res
	if d := bits.HammingDistance(hw.Bits, sw.Bits); d != 0 || hw.Iterations != sw.Iterations {
		t.Fatalf("scalar fallback differs: %d bits, it %d vs %d", d, sw.Iterations, hw.Iterations)
	}
	if bits.HammingDistance(sw.Bits, in) != 0 {
		t.Fatal("scalar stepper failed to decode a 0 dB block")
	}
}

// TestRadix4AllocFree: the kernel path must stay allocation-free like the
// scalar one — the kernels work entirely in preallocated decoder scratch.
func TestRadix4AllocFree(t *testing.T) {
	const k = 5312
	d, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(82)
	s0 := randLLRs(r, k+4, 0)
	s1 := randLLRs(r, k+4, 1)
	s2 := randLLRs(r, k+4, 2)
	d.Decode(s0, s1, s2, nil) // warm up
	allocs := testing.AllocsPerRun(5, func() {
		d.Decode(s0, s1, s2, nil)
	})
	if allocs != 0 {
		t.Fatalf("kernel-path Decode allocates %.1f objects per call, want 0", allocs)
	}
}
