// Package phy implements the LTE uplink (PUSCH) physical layer: a
// transmitter used to synthesize decodable IQ subframes and a receiver whose
// processing is decomposed exactly as the paper's Fig. 5 — sequential tasks
// (FFT, demod, decode), each broken into independent subtasks that can run
// concurrently and, under RT-OPEX, be migrated to idle cores.
//
// The receive chain is: per-antenna, per-symbol FFT with cyclic-prefix
// removal → per-antenna channel estimation from the two DM-RS symbols →
// per-data-symbol MRC equalization, SC-FDMA de-precoding, soft demapping and
// descrambling → per-code-block rate dematching and turbo decoding with CRC
// early termination.
//
// Substitution note (see DESIGN.md): the DM-RS uses a unit-magnitude QPSK
// pilot derived from the Gold sequence instead of the standard's Zadoff-Chu
// base sequences. Both are constant-magnitude known references; channel
// estimation quality and — critically for the paper — the compute shape of
// the chain are unchanged.
package phy

import (
	"fmt"
	"math"

	"rtopex/internal/fft"
	"rtopex/internal/lte"
	"rtopex/internal/modulation"
	"rtopex/internal/sequence"
	"rtopex/internal/turbo"
)

// Config describes one basestation's uplink configuration.
type Config struct {
	Bandwidth lte.Bandwidth
	MCS       int
	Antennas  int // receive antennas, the paper's N
	RNTI      uint16
	CellID    uint16
	Subframe  int // subframe index 0..9, enters the scrambling init
	// MaxIterations is the turbo decoder's iteration cap (the paper's Lm,
	// default 4 when zero).
	MaxIterations int
}

func (c Config) maxIter() int {
	if c.MaxIterations <= 0 {
		return 4
	}
	return c.MaxIterations
}

func (c Config) validate() error {
	if c.Antennas < 1 {
		return fmt.Errorf("phy: need at least 1 antenna, got %d", c.Antennas)
	}
	if c.Bandwidth.FFTSize == 0 || c.Bandwidth.PRB == 0 {
		return fmt.Errorf("phy: incomplete bandwidth configuration %+v", c.Bandwidth)
	}
	if _, err := lte.MCSTable(c.MCS); err != nil {
		return err
	}
	if c.MCS > lte.MaxMCS {
		return fmt.Errorf("phy: MCS %d above supported maximum %d", c.MCS, lte.MaxMCS)
	}
	return nil
}

// dataSymbolIndices are the 12 PUSCH data symbols (DM-RS occupies symbol 3
// of each slot, i.e. subframe symbols 3 and 10).
var dataSymbolIndices = []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13}

const (
	dmrsSymbol1 = 3
	dmrsSymbol2 = 10
)

// placeSubcarriers writes the M occupied subcarriers sc into the N FFT bins,
// centred on DC: in subcarrier order the lower M/2 land in the top bins
// [N−M/2, N) and the rest in [0, M−M/2) — two contiguous runs, which
// demodulateOFDM reads back the same way.
func placeSubcarriers(bins, sc []complex128) {
	lo := len(sc) / 2
	copy(bins[len(bins)-lo:], sc[:lo])
	copy(bins, sc[lo:])
}

// demodulateOFDM turns one OFDM symbol's N time samples (cyclic prefix
// already stripped) into its occupied subcarriers: forward transform into
// the caller's N-bin buf, then the 1/√N-scaled bins extracted into row.
// samples is only read, so it can be a window of the antenna's IQ stream.
func demodulateOFDM(plan *fft.Plan, samples, buf, row []complex128) {
	plan.ForwardFrom(buf, samples)
	scale := complex(1/math.Sqrt(float64(len(buf))), 0)
	lo := len(row) / 2
	for k, v := range buf[len(buf)-lo:] {
		row[k] = v * scale
	}
	for k, v := range buf[:len(row)-lo] {
		row[lo+k] = v * scale
	}
}

// pilotSequence returns the unit-magnitude QPSK DM-RS for a cell: one entry
// per subcarrier, shared by both DM-RS symbols.
func pilotSequence(cellID uint16, m int) []complex128 {
	bits := sequence.Gold(uint32(cellID)<<9|0x7, 2*m)
	p := make([]complex128, m)
	s := 1 / math.Sqrt2
	for k := 0; k < m; k++ {
		re, im := s, s
		if bits[2*k] == 1 {
			re = -s
		}
		if bits[2*k+1] == 1 {
			im = -s
		}
		p[k] = complex(re, im)
	}
	return p
}

// codingLayout captures the deterministic per-MCS coding geometry shared by
// transmitter and receiver.
type codingLayout struct {
	tbs    int // transport block bits (before CRC24A)
	g      int // codeword bits
	scheme modulation.Scheme
	seg    *turbo.Segmentation
	es     []int // per-block rate-matching output sizes
	offs   []int // per-block codeword bit offsets
}

func newCodingLayout(cfg Config) (*codingLayout, error) {
	tbs, scheme, err := lte.TransportBlockSize(cfg.MCS, cfg.Bandwidth.PRB)
	if err != nil {
		return nil, err
	}
	g, err := lte.CodewordBits(cfg.MCS, cfg.Bandwidth)
	if err != nil {
		return nil, err
	}
	seg, err := turbo.Segment(tbs + 24) // TB + CRC24A
	if err != nil {
		return nil, err
	}
	es, err := turbo.PerBlockE(g, seg.C, scheme.Order())
	if err != nil {
		return nil, err
	}
	offs := make([]int, seg.C)
	pos := 0
	for r := range es {
		offs[r] = pos
		pos += es[r]
	}
	if pos != g {
		return nil, fmt.Errorf("phy: E accounting %d != G %d", pos, g)
	}
	return &codingLayout{tbs: tbs, g: g, scheme: scheme, seg: seg, es: es, offs: offs}, nil
}
