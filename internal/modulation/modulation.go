// Package modulation implements the LTE uplink constellation mappers and
// max-log-MAP soft demappers for QPSK, 16-QAM and 64-QAM per
// 3GPP TS 36.211 §7.1.
//
// Mapping follows the standard's Gray-coded tables with unit average symbol
// energy. The demappers produce log-likelihood ratios with the convention
// LLR > 0 ⇒ bit 0 more likely, which is what the turbo decoder and the
// descrambler in this chain expect.
package modulation

import (
	"fmt"
	"math"
)

// Scheme identifies a modulation order.
type Scheme int

// Supported modulation schemes. The numeric value is the modulation order
// K = bits per symbol, matching the K regressor of the paper's Eq. (1).
const (
	QPSK  Scheme = 2
	QAM16 Scheme = 4
	QAM64 Scheme = 6
)

// Order returns bits per symbol.
func (s Scheme) Order() int { return int(s) }

func (s Scheme) String() string {
	switch s {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Valid reports whether s is a supported scheme.
func (s Scheme) Valid() bool { return s == QPSK || s == QAM16 || s == QAM64 }

// Normalization factors giving unit average energy (TS 36.211 tables).
var (
	qpskScale  = 1 / math.Sqrt2
	qam16Scale = 1 / math.Sqrt(10)
	qam64Scale = 1 / math.Sqrt(42)
)

// pamLevel maps Gray-coded amplitude bits to the PAM level used by the
// 36.211 tables: for 16-QAM, bits (b) -> 1 or 3; for 64-QAM, bits (b1 b2) ->
// 3, 1, 5, 7 pattern. Expressed here via the standard's per-axis rules.
func pam4Level(b byte) float64 { // one bit selects |level| ∈ {1,3}
	if b == 0 {
		return 1
	}
	return 3
}

func pam8Level(b1, b2 byte) float64 { // two bits select |level| ∈ {1,3,5,7}
	switch b1<<1 | b2 {
	case 0b00:
		return 3
	case 0b01:
		return 1
	case 0b10:
		return 5
	default:
		return 7
	}
}

// Map modulates a 0/1 bit slice into complex symbols. The bit count must be
// a multiple of the modulation order; Map panics otherwise because the rate
// matcher always produces an exact multiple.
func Map(scheme Scheme, bitSlice []byte) []complex128 {
	k := scheme.Order()
	if !scheme.Valid() {
		panic(fmt.Sprintf("modulation: unsupported scheme %d", scheme))
	}
	if len(bitSlice)%k != 0 {
		panic(fmt.Sprintf("modulation: %d bits not a multiple of order %d", len(bitSlice), k))
	}
	out := make([]complex128, len(bitSlice)/k)
	switch scheme {
	case QPSK:
		for i := range out {
			b0, b1 := bitSlice[2*i], bitSlice[2*i+1]
			out[i] = complex(qpskSign(b0)*qpskScale, qpskSign(b1)*qpskScale)
		}
	case QAM16:
		for i := range out {
			b := bitSlice[4*i : 4*i+4]
			re := qpskSign(b[0]) * pam4Level(b[2]) * qam16Scale
			im := qpskSign(b[1]) * pam4Level(b[3]) * qam16Scale
			out[i] = complex(re, im)
		}
	case QAM64:
		for i := range out {
			b := bitSlice[6*i : 6*i+6]
			re := qpskSign(b[0]) * pam8Level(b[2], b[4]) * qam64Scale
			im := qpskSign(b[1]) * pam8Level(b[3], b[5]) * qam64Scale
			out[i] = complex(re, im)
		}
	}
	return out
}

func qpskSign(b byte) float64 {
	if b == 0 {
		return 1
	}
	return -1
}

// DemapInto computes max-log LLRs for each received symbol given the
// per-symbol noise variance n0 (complex noise power) into dst, which must
// hold exactly len(symbols)·Order() entries: Order() LLRs per symbol, in
// transmission order, positive meaning bit 0. A noise power that is not
// positive (including NaN) is clamped to 1e-12. Allocation-free — the hot
// path of the receive chain.
//
// For the Gray mappings above the max-log LLRs have closed forms in the
// I and Q components, which keeps the demapper O(1) per bit.
func DemapInto(dst []float64, scheme Scheme, symbols []complex128, n0 float64) {
	g := demapGain(dst, scheme, symbols, n0)
	done := 0
	if kernelsEnabled {
		done = demapKernel(dst, nil, scheme, symbols, 1, 1, 1, g)
	}
	demapScalar(dst[done*scheme.Order():], scheme, symbols[done:], g)
}

// DemapConjInto is the receiver's de-precoding output stage in one pass:
// it demaps the symbols y[i] = conj(x[i])·c1·c2 — each part multiplied by
// c1 and the product by c2, two roundings — and multiplies every LLR by
// sign[i]. The bits are those of scaling x into a buffer that way, calling
// DemapInto on it and multiplying dst by sign element by element. sign must
// have len(dst) entries.
func DemapConjInto(dst, sign []float64, scheme Scheme, x []complex128, c1, c2, n0 float64) {
	g := demapGain(dst, scheme, x, n0)
	if len(sign) != len(dst) {
		panic(fmt.Sprintf("modulation: DemapConjInto sign length %d, want %d", len(sign), len(dst)))
	}
	k := scheme.Order()
	done := 0
	if kernelsEnabled {
		done = demapKernel(dst, sign, scheme, x, c1, -c1, c2, g)
	}
	// The rest goes through DemapInto's scalar code a chunk at a time.
	var y [64]complex128
	for done < len(x) {
		chunk := y[:min(len(y), len(x)-done)]
		for i := range chunk {
			v := x[done+i]
			v = complex(real(v)*c1, -imag(v)*c1)
			chunk[i] = complex(real(v)*c2, imag(v)*c2)
		}
		out := dst[done*k : (done+len(chunk))*k]
		demapScalar(out, scheme, chunk, g)
		for i, s := range sign[done*k : (done+len(chunk))*k] {
			out[i] *= s
		}
		done += len(chunk)
	}
}

// demapGain checks dst's length and the scheme and returns the LLR gain
// 4/n0 of the clamped noise power: 4/n0 · component is the exact QPSK LLR,
// and the same scaling applies to the piecewise-linear higher-order
// expressions.
func demapGain(dst []float64, scheme Scheme, symbols []complex128, n0 float64) float64 {
	if !scheme.Valid() {
		panic(fmt.Sprintf("modulation: unsupported scheme %d", scheme))
	}
	if len(dst) != len(symbols)*scheme.Order() {
		panic(fmt.Sprintf("modulation: demap dst length %d, want %d", len(dst), len(symbols)*scheme.Order()))
	}
	if !(n0 > 0) {
		n0 = 1e-12
	}
	return 4 / n0
}

// demapScalar is the reference demapper, the only definition of the
// arithmetic: the kernels reproduce it bit for bit, and it runs whatever
// they leave.
func demapScalar(dst []float64, scheme Scheme, symbols []complex128, g float64) {
	switch scheme {
	case QPSK:
		for i, s := range symbols {
			dst[2*i] = g * real(s) * qpskScale
			dst[2*i+1] = g * imag(s) * qpskScale
		}
	case QAM16:
		a := qam16Scale
		for i, s := range symbols {
			re, im := real(s), imag(s)
			// Transmission order b0..b3 = sign(I), sign(Q), amp(I), amp(Q).
			// Amplitude bit is 0 ⇔ |x| < 2a (inner column).
			dst[4*i] = g * a * softSign16(re, a)
			dst[4*i+1] = g * a * softSign16(im, a)
			dst[4*i+2] = g * a * (2*a - math.Abs(re))
			dst[4*i+3] = g * a * (2*a - math.Abs(im))
		}
	case QAM64:
		a := qam64Scale
		for i, s := range symbols {
			re, im := real(s), imag(s)
			dst[6*i] = g * a * softSign64(re, a)
			dst[6*i+1] = g * a * softSign64(im, a)
			dst[6*i+2] = g * a * (4*a - math.Abs(re))
			dst[6*i+3] = g * a * (4*a - math.Abs(im))
			dst[6*i+4] = g * a * (2*a - math.Abs(math.Abs(re)-4*a))
			dst[6*i+5] = g * a * (2*a - math.Abs(math.Abs(im)-4*a))
		}
	}
}

// softSign16 is the max-log LLR kernel for the 16-QAM sign bit: linear near
// zero, slope doubles past the inner constellation column.
func softSign16(x, a float64) float64 {
	switch {
	case x > 2*a:
		return 2 * (x - a)
	case x < -2*a:
		return 2 * (x + a)
	default:
		return x
	}
}

// softSign64 is the max-log LLR kernel for the 64-QAM sign bit.
func softSign64(x, a float64) float64 {
	ax := math.Abs(x)
	var v float64
	switch {
	case ax <= 2*a:
		v = x
	case ax <= 4*a:
		v = 2 * (x - signOf(x)*a)
	case ax <= 6*a:
		v = 3 * (x - signOf(x)*2*a)
	default:
		v = 4 * (x - signOf(x)*3*a)
	}
	return v
}

func signOf(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// HardDecision slices LLRs into bits: bit = 1 iff LLR < 0.
func HardDecision(llrs []float64) []byte {
	out := make([]byte, len(llrs))
	for i, l := range llrs {
		if l < 0 {
			out[i] = 1
		}
	}
	return out
}
