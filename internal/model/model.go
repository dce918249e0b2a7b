// Package model implements the paper's end-to-end processing-time model
// (Eq. 1):
//
//	Trxproc = w0 + w1·N + w2·K + w3·D·L + E
//
// where N is the antenna count, K the modulation order, D the subcarrier
// load (bits/RE), L the turbo iteration count, and E a platform error term.
// The package provides the calibrated GPP parameters of Table 1, a
// long-tailed platform-jitter sampler matching Fig. 3(d), an SNR-dependent
// iteration law, least-squares fitting (the Table 1 procedure), and the
// FFT/demod/decode task decomposition the simulator and RT-OPEX use.
//
// All times are in microseconds.
package model

import (
	"errors"
	"math"

	"rtopex/internal/stats"
)

// Params are the linear-model coefficients (µs).
type Params struct {
	W0 float64 // fixed overhead
	W1 float64 // per antenna (symbol-level blocks: FFT, equalization, copies)
	W2 float64 // per modulation order (constellation-level blocks)
	W3 float64 // per D·L (decoder work: D bits per subcarrier per iteration)
}

// PaperGPP is Table 1: the parameters measured on the paper's Xeon E5-2660
// with r² = 0.992.
var PaperGPP = Params{W0: 31.4, W1: 169.1, W2: 49.7, W3: 93.0}

// Predict evaluates Eq. (1) without the error term.
func (p Params) Predict(n, k int, d float64, l int) float64 {
	return p.W0 + p.W1*float64(n) + p.W2*float64(k) + p.W3*d*float64(l)
}

// fftPerAntennaUS is the FFT task's share of the per-antenna coefficient:
// 54 µs per antenna gives the 108 µs two-antenna FFT task median the paper
// measures in Fig. 18. The remainder of w1·N (memory copies, channel
// estimation, equalization) belongs to the demod task.
const fftPerAntennaUS = 54.0

// TaskTimes decomposes a subframe's processing time into the paper's three
// sequential tasks (Fig. 5).
type TaskTimes struct {
	FFT    float64
	Demod  float64
	Decode float64
}

// Tasks splits Predict into the three tasks: FFT scales with antennas,
// demod absorbs the fixed cost, the remaining antenna work and the
// modulation-order work, decode carries the D·L term.
func (p Params) Tasks(n, k int, d float64, l int) TaskTimes {
	fft := fftPerAntennaUS * float64(n)
	demodAnt := p.W1 - fftPerAntennaUS
	if demodAnt < 0 {
		demodAnt = 0
		fft = p.W1 * float64(n)
	}
	return TaskTimes{
		FFT:    fft,
		Demod:  p.W0 + demodAnt*float64(n) + p.W2*float64(k),
		Decode: p.W3 * d * float64(l),
	}
}

// symbolsPerSubframe fixes the FFT subtask granularity of Fig. 5: one FFT
// subtask per (antenna, OFDM symbol). Subtask durations are the task time
// split evenly, which matches the paper's treatment of subtasks as fixed
// execution units.
const symbolsPerSubframe = 14

// FFTSubtaskCount returns the number of FFT subtasks for n antennas.
func FFTSubtaskCount(n int) int { return symbolsPerSubframe * n }

// Jitter is the platform-error model: a Gaussian bulk plus a rare Pareto
// spike, calibrated so that P(E > 150 µs) ≈ 1e-3 and P(E > 400 µs) ≈ 1e-5
// with extreme values ~0.7 ms at the 1-in-10⁶ level — the order statistics
// of Fig. 3(d) and the cyclictest/hackbench stress test.
type Jitter struct {
	SigmaUS      float64 // Gaussian bulk σ
	SpikeProb    float64 // probability a sample carries a spike
	SpikeScaleUS float64 // Pareto scale xm
	SpikeAlpha   float64 // Pareto shape
}

// DefaultJitter is the Fig. 3(d) calibration.
var DefaultJitter = Jitter{SigmaUS: 12, SpikeProb: 0.01, SpikeScaleUS: 92, SpikeAlpha: 4.7}

// NoJitter disables the platform error term (for deterministic tests).
var NoJitter = Jitter{}

// Sample draws one platform error value (µs). The bulk is symmetric around
// zero (it is a model residual); spikes are strictly positive (preemptions
// only ever delay processing).
func (j Jitter) Sample(r *stats.RNG) float64 {
	e := 0.0
	if j.SigmaUS > 0 {
		e = j.SigmaUS * r.NormFloat64()
	}
	if j.SpikeProb > 0 && r.Float64() < j.SpikeProb {
		e += r.Pareto(j.SpikeScaleUS, j.SpikeAlpha)
	}
	return e
}

// IterationLaw models the turbo iteration count L ∈ [1, Lm] as a function
// of the SNR margin above the MCS's decoding threshold: each additional
// iteration is needed with probability q = clamp(exp(-margin/decay), floor,
// ceil), giving a truncated geometric distribution. The floor keeps a
// residual iteration tail even at high SNR — the paper observes that L "is
// in general non-deterministic (even for fixed SNR)".
type IterationLaw struct {
	ThresholdBaseDB   float64 // decoding threshold of MCS 0
	ThresholdPerMCSDB float64 // threshold slope per MCS step
	DecayDB           float64 // margin scale
	FloorProb         float64 // minimum per-step retry probability
	CeilProb          float64 // maximum per-step retry probability
}

// DefaultIterationLaw spans thresholds from ≈ -1 dB (MCS 0) to ≈ 20 dB
// (MCS 27), matching LTE link-adaptation tables.
// The floor of 0.15 reflects that even at 30 dB the high-rate MCSs retain a
// substantial multi-iteration tail (the paper's partitioned scheduler
// misses ~1e-2 of subframes at RTT/2 = 500–600 µs, which requires
// P(L ≥ 3 | MCS 27, 30 dB) of a few percent).
var DefaultIterationLaw = IterationLaw{
	ThresholdBaseDB:   -1,
	ThresholdPerMCSDB: 0.78,
	DecayDB:           2.5,
	FloorProb:         0.15,
	CeilProb:          0.95,
}

// RetryProb returns the per-step probability of needing one more iteration.
func (il IterationLaw) RetryProb(mcs int, snrDB float64) float64 {
	margin := snrDB - (il.ThresholdBaseDB + il.ThresholdPerMCSDB*float64(mcs))
	q := math.Exp(-margin / il.DecayDB)
	if q < il.FloorProb {
		q = il.FloorProb
	}
	if q > il.CeilProb {
		q = il.CeilProb
	}
	return q
}

// Sample draws an iteration count in [1, lm].
func (il IterationLaw) Sample(r *stats.RNG, mcs int, snrDB float64, lm int) int {
	if lm < 1 {
		lm = 1
	}
	q := il.RetryProb(mcs, snrDB)
	l := 1
	for l < lm && r.Float64() < q {
		l++
	}
	return l
}

// Decodable reports whether a subframe decodes successfully under the law:
// a decode fails when even Lm iterations would not converge, i.e. the
// geometric chain would continue past Lm.
func (il IterationLaw) Decodable(r *stats.RNG, mcs int, snrDB float64, lm, got int) bool {
	if got < lm {
		return true
	}
	return r.Float64() >= il.RetryProb(mcs, snrDB)
}

// Observation is one processing-time measurement for fitting.
type Observation struct {
	N int     // antennas
	K int     // modulation order
	D float64 // subcarrier load
	L int     // turbo iterations
	T float64 // measured total time (µs)
}

// Fit estimates Params from observations by ordinary least squares and
// returns the goodness of fit r², reproducing the Table 1 procedure.
func Fit(obs []Observation) (Params, float64, error) {
	if len(obs) < 4 {
		return Params{}, 0, errors.New("model: need at least 4 observations")
	}
	x := make([][]float64, len(obs))
	y := make([]float64, len(obs))
	for i, o := range obs {
		x[i] = []float64{1, float64(o.N), float64(o.K), o.D * float64(o.L)}
		y[i] = o.T
	}
	beta, r2, err := stats.OLS(x, y)
	if err != nil {
		return Params{}, 0, err
	}
	return Params{W0: beta[0], W1: beta[1], W2: beta[2], W3: beta[3]}, r2, nil
}
