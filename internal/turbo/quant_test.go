package turbo

import (
	"math"
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/stats"
)

// decodeQuantBits runs one production decode over the given soft streams.
// check=nil forces the full iteration count on the trellis, so the comparison
// exercises the recursions rather than the raw pre-check.
func decodeQuantBits(t *testing.T, k, maxIter int, s [][]float64) []byte {
	t.Helper()
	dec, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	dec.MaxIterations = maxIter
	res := dec.Decode(s[0], s[1], s[2], nil)
	return append([]byte(nil), res.Bits...)
}

// oracleBits is decodeQuantBits for the float64 test oracle.
func oracleBits(k, maxIter int, s [][]float64) []byte {
	return oracleDecode(k, maxIter, s[0], s[1], s[2], nil).Bits
}

func noisyStreams(r *stats.RNG, streams [][]byte, snrDB float64) [][]float64 {
	s := make([][]float64, 3)
	for j := range streams {
		s[j] = bpskLLR(r, streams[j], snrDB)
	}
	return s
}

// TestQuantMatchesFloatAtModerateSNR: across a K × SNR grid where the code
// operates comfortably above the waterfall, the int16 path's hard decisions
// must be bit-identical to the float64 oracle's (and both must recover the
// transmitted block). Q9.6 keeps ~2 decimal digits of LLR precision, far
// more than max-log-MAP needs when the channel is this clean.
func TestQuantMatchesFloatAtModerateSNR(t *testing.T) {
	r := stats.NewRNG(70)
	for _, k := range []int{40, 512, 1056, 6144} {
		for _, snr := range []float64{3, 5, 8} {
			for trial := 0; trial < 2; trial++ {
				in := randomBlock(r, k)
				streams, _ := EncodeStreams(in)
				s := noisyStreams(r, streams, snr)
				q := decodeQuantBits(t, k, 4, s)
				f := oracleBits(k, 4, s)
				if d := bits.HammingDistance(q, f); d != 0 {
					t.Fatalf("K=%d SNR=%v trial %d: quant and float disagree in %d bits", k, snr, trial, d)
				}
				if bits.HammingDistance(q, in) != 0 {
					t.Fatalf("K=%d SNR=%v trial %d: decode failed above the waterfall", k, snr, trial)
				}
			}
		}
	}
}

// TestQuantFloatBLERDeltaBounded sweeps the waterfall region, where
// quantization noise actually matters, and bounds both the block-error-rate
// gap and the per-trial disagreement between the two arithmetics. The two
// paths see identical noise realizations, so disagreements isolate the
// quantization itself.
func TestQuantFloatBLERDeltaBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("BLER sweep in -short mode")
	}
	r := stats.NewRNG(71)
	const k = 512
	const trials = 30
	for _, snr := range []float64{-5.5, -4.5, -3.5} {
		failQ, failF, disagree := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			in := randomBlock(r, k)
			streams, _ := EncodeStreams(in)
			s := noisyStreams(r, streams, snr)
			q := decodeQuantBits(t, k, 8, s)
			f := oracleBits(k, 8, s)
			qOK := bits.HammingDistance(q, in) == 0
			fOK := bits.HammingDistance(f, in) == 0
			if !qOK {
				failQ++
			}
			if !fOK {
				failF++
			}
			if qOK != fOK {
				disagree++
			}
		}
		blerGap := math.Abs(float64(failQ)-float64(failF)) / trials
		if blerGap > 0.2 {
			t.Fatalf("SNR=%v: BLER gap %.2f (quant %d/%d vs float %d/%d fails)",
				snr, blerGap, failQ, trials, failF, trials)
		}
		if float64(disagree)/trials > 0.2 {
			t.Fatalf("SNR=%v: paths disagree on %d/%d blocks", snr, disagree, trials)
		}
	}
}

// TestQuantDecodeSaturatedInputs: LLRs far beyond the ±LLRQMax rail — the
// saturated-demapper regime, including ±Inf from a degenerate noise estimate —
// must still decode noiseless codewords exactly. This is the saturation edge
// of the Q-format: every branch metric sits at the rail and the doubled-metric
// prologue arithmetic must not wrap.
func TestQuantDecodeSaturatedInputs(t *testing.T) {
	r := stats.NewRNG(72)
	for _, k := range []int{40, 104, 512} {
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		for _, mag := range []float64{1e6, math.Inf(1)} {
			s := make([][]float64, 3)
			for j := range streams {
				s[j] = make([]float64, len(streams[j]))
				for i, b := range streams[j] {
					s[j][i] = mag * (1 - 2*float64(b))
				}
			}
			q := decodeQuantBits(t, k, 4, s)
			if bits.HammingDistance(q, in) != 0 {
				t.Fatalf("K=%d |LLR|=%v: quantized decode failed on railed inputs", k, mag)
			}
		}
	}
}

// puncturedHead is the adversarial input for the guarded prologue: in the
// first trellis steps most states carry the "impossible" marker, and an
// all-zero LLR head, where those sentinels meet zero metrics, with railed
// values right after it, is what can let one creep back into contention.
func puncturedHead(streams [][]byte) [][]float64 {
	s := make([][]float64, 3)
	for j := range streams {
		s[j] = make([]float64, len(streams[j]))
		for i, b := range streams[j] {
			switch {
			case i < 6:
				s[j][i] = 0
			case i < 12:
				s[j][i] = 1e5 * (1 - 2*float64(b))
			default:
				s[j][i] = 8 * (1 - 2*float64(b))
			}
		}
	}
	return s
}

// TestQuantSentinelPuncturedHead attacks the unreachable-state sentinels: on
// a punctured head the quantized path must agree with the float oracle bit
// for bit and still recover the block.
func TestQuantSentinelPuncturedHead(t *testing.T) {
	r := stats.NewRNG(73)
	for _, k := range []int{40, 48, 64} {
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		s := puncturedHead(streams)
		q := decodeQuantBits(t, k, 4, s)
		f := oracleBits(k, 4, s)
		if d := bits.HammingDistance(q, f); d != 0 {
			t.Fatalf("K=%d: quant and float disagree in %d bits on punctured head", k, d)
		}
		if bits.HammingDistance(q, in) != 0 {
			t.Fatalf("K=%d: decode failed with punctured head", k)
		}
	}
}

// TestQuantEarlyTerminationParity: with a CRC-style check, both paths must
// terminate early on the same clean block and report OK.
func TestQuantEarlyTerminationParity(t *testing.T) {
	r := stats.NewRNG(74)
	const k = 512
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := noisyStreams(r, streams, 8)
	want := append([]byte(nil), in...)
	check := func(b []byte) bool { return bits.HammingDistance(b, want) == 0 }
	dec, _ := NewDecoder(k)
	dec.PrecheckRaw = false // force at least one constituent pass
	dec.MaxIterations = 8
	for _, c := range []struct {
		name string
		res  Result
	}{
		{"quantized", dec.Decode(s[0], s[1], s[2], check)},
		{"float64", oracleDecode(k, 8, s[0], s[1], s[2], check)},
	} {
		if !c.res.OK {
			t.Fatalf("%v: check never passed at 8 dB", c.name)
		}
		if c.res.Iterations >= 8 {
			t.Fatalf("%v: no early termination (%d iterations)", c.name, c.res.Iterations)
		}
	}
}

// TestDecodeZeroIterationsReturnsRawDecisions: with no iterations allowed
// and nothing to check, the answer is the raw systematic hard decisions — on
// a fresh decoder fed all-negative LLRs, all ones, not whatever the
// decoder-2 scratch last held.
func TestDecodeZeroIterationsReturnsRawDecisions(t *testing.T) {
	const k = 40
	dec, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	dec.MaxIterations = 0
	s := make([]float64, k+4)
	for i := range s {
		s[i] = -4
	}
	res := dec.Decode(s, s, s, nil)
	if !res.OK || res.Iterations != 0 {
		t.Fatalf("OK=%v Iterations=%d, want OK with 0 iterations", res.OK, res.Iterations)
	}
	for i, b := range res.Bits {
		if b != 1 {
			t.Fatalf("bit %d = %d, want the raw decision 1", i, b)
		}
	}
	// With a check the verdict is the check's, on the same raw decisions.
	dec.PrecheckRaw = false
	res = dec.Decode(s, s, s, func(b []byte) bool { return b[0] == 0 })
	if res.OK || res.Bits[0] != 1 {
		t.Fatalf("rejecting check: OK=%v bit0=%d, want !OK on raw decisions", res.OK, res.Bits[0])
	}
}
