package phy

import (
	"fmt"
	"math"

	"rtopex/internal/bits"
	"rtopex/internal/fft"
	"rtopex/internal/modulation"
	"rtopex/internal/sequence"
	"rtopex/internal/turbo"
)

// Transmitter synthesizes one PUSCH subframe of baseband samples from a
// transport block, for driving the receiver and the C-RAN testbed emulation.
type Transmitter struct {
	cfg    Config
	layout *codingLayout
	plan   *fft.Plan
	pilot  []complex128
}

// NewTransmitter validates the configuration and precomputes the coding
// layout, FFT plan and pilot sequence.
func NewTransmitter(cfg Config) (*Transmitter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, err := newCodingLayout(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := fft.NewPlan(cfg.Bandwidth.FFTSize)
	if err != nil {
		return nil, err
	}
	return &Transmitter{
		cfg:    cfg,
		layout: layout,
		plan:   plan,
		pilot:  pilotSequence(cfg.CellID, cfg.Bandwidth.Subcarriers()),
	}, nil
}

// TBS returns the transport block size in bits.
func (tx *Transmitter) TBS() int { return tx.layout.tbs }

// CodeBlocks returns the number of turbo code blocks C.
func (tx *Transmitter) CodeBlocks() int { return tx.layout.seg.C }

// Transmit encodes payload (TBS bits, 0/1 values) into one subframe of
// baseband samples at redundancy version 0.
func (tx *Transmitter) Transmit(payload []byte) ([]complex128, error) {
	if len(payload) != tx.layout.tbs {
		return nil, fmt.Errorf("phy: payload %d bits, want TBS %d", len(payload), tx.layout.tbs)
	}
	codeword, err := tx.encodeCodeword(payload)
	if err != nil {
		return nil, err
	}
	// Scramble.
	scr := sequence.NewScrambler(sequence.PUSCHInit(tx.cfg.RNTI, 0, tx.cfg.Subframe, tx.cfg.CellID), len(codeword))
	scr.Apply(codeword)
	// Modulate: G/Qm symbols = 12 data symbols × M subcarriers.
	return tx.buildWaveform(codeword)
}

// encodeCodeword runs CRC attachment, segmentation, turbo encoding and rate
// matching, returning G codeword bits.
func (tx *Transmitter) encodeCodeword(payload []byte) ([]byte, error) {
	tb := bits.AppendCRC(append([]byte(nil), payload...), bits.CRC24A(payload), 24)
	blocks, err := tx.layout.seg.Split(tb)
	if err != nil {
		return nil, err
	}
	codeword := make([]byte, 0, tx.layout.g)
	for r, blk := range blocks {
		streams, err := turbo.EncodeStreams(blk)
		if err != nil {
			return nil, err
		}
		rm, err := turbo.NewRateMatcher(len(blk))
		if err != nil {
			return nil, err
		}
		matched, err := rm.Match(streams, tx.layout.es[r], 0)
		if err != nil {
			return nil, err
		}
		codeword = append(codeword, matched...)
	}
	return codeword, nil
}

// buildWaveform maps the codeword onto the SC-FDMA subframe.
func (tx *Transmitter) buildWaveform(codeword []byte) ([]complex128, error) {
	bw := tx.cfg.Bandwidth
	m := bw.Subcarriers()
	n := bw.FFTSize
	syms := modulation.Map(tx.layout.scheme, codeword)
	if len(syms) != m*len(dataSymbolIndices) {
		return nil, fmt.Errorf("phy: %d modulation symbols for %d REs", len(syms), m*len(dataSymbolIndices))
	}

	out := make([]complex128, 0, bw.SamplesPerSubframe())
	sqrtM := math.Sqrt(float64(m))
	sqrtN := math.Sqrt(float64(n))
	dataIdx := 0
	for l := 0; l < 14; l++ {
		// The subcarrier grid, transformed in place into the time domain.
		tdom := make([]complex128, n)
		switch l {
		case dmrsSymbol1, dmrsSymbol2:
			placeSubcarriers(tdom, tx.pilot)
		default:
			// SC-FDMA transform precoding: DFT of the symbol's M
			// constellation points, normalized to unit subcarrier power.
			pre := fft.DFT(syms[dataIdx*m : (dataIdx+1)*m])
			for k := range pre {
				pre[k] /= complex(sqrtM, 0)
			}
			placeSubcarriers(tdom, pre)
			dataIdx++
		}
		// OFDM modulation with √N scaling so the receiver's FFT/√N
		// recovers unit-power subcarriers.
		tx.plan.Inverse(tdom)
		for i := range tdom {
			tdom[i] *= complex(sqrtN, 0)
		}
		cp := bw.CPLen(l)
		out = append(out, tdom[n-cp:]...)
		out = append(out, tdom...)
	}
	return out, nil
}
