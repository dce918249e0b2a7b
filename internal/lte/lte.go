// Package lte holds the LTE numerology, MCS and transport-block-size tables
// used by the uplink chain and the workload models: bandwidth configurations
// (FFT size, sampling rate, PRB count), the PUSCH MCS→(modulation, I_TBS)
// mapping of TS 36.213 Table 8.6.1-1, and the TBS columns of Table
// 7.1.7.2.1-1 for the PRB counts this reproduction uses.
//
// The paper's subcarrier load D is TBS divided by the subframe's RE budget
// (8400 for 10 MHz); with 50 PRBs it spans 0.16 (MCS 0) to 3.7 bits/RE
// (MCS 27), exactly the range §2.1 quotes.
package lte

import (
	"fmt"

	"rtopex/internal/modulation"
)

// Timing constants.
const (
	// SubframeDuration is 1 ms expressed in microseconds, the unit the
	// platform simulator uses throughout.
	SubframeDurationUS = 1000
	// SymbolsPerSubframe under normal cyclic prefix.
	SymbolsPerSubframe = 14
	// SubcarriersPerPRB in frequency.
	SubcarriersPerPRB = 12
	// DMRSSymbolsPerSubframe: one demodulation reference symbol per slot.
	DMRSSymbolsPerSubframe = 2
	// MaxMCS supported for PUSCH data in this reproduction (the paper
	// sweeps 0–27).
	MaxMCS = 27
)

// Bandwidth describes one LTE channel bandwidth configuration.
type Bandwidth struct {
	MHz          float64
	PRB          int // resource blocks across frequency
	FFTSize      int
	SampleRateHz int
}

// Standard bandwidth configurations.
var (
	BW5MHz  = Bandwidth{MHz: 5, PRB: 25, FFTSize: 512, SampleRateHz: 7_680_000}
	BW10MHz = Bandwidth{MHz: 10, PRB: 50, FFTSize: 1024, SampleRateHz: 15_360_000}
	BW20MHz = Bandwidth{MHz: 20, PRB: 100, FFTSize: 2048, SampleRateHz: 30_720_000}
)

// SamplesPerSubframe is the number of complex baseband samples in 1 ms.
func (b Bandwidth) SamplesPerSubframe() int { return b.SampleRateHz / 1000 }

// Subcarriers is the number of occupied data subcarriers.
func (b Bandwidth) Subcarriers() int { return b.PRB * SubcarriersPerPRB }

// TotalREs is the full RE budget of a subframe (all 14 symbols), the
// denominator of the paper's subcarrier load D.
func (b Bandwidth) TotalREs() int { return b.Subcarriers() * SymbolsPerSubframe }

// DataREs is the PUSCH data RE count: 14 symbols minus the 2 DM-RS symbols.
func (b Bandwidth) DataREs() int {
	return b.Subcarriers() * (SymbolsPerSubframe - DMRSSymbolsPerSubframe)
}

// CPLen returns the cyclic-prefix length in samples for symbol l (0..13),
// scaled from the 2048-point reference numerology.
func (b Bandwidth) CPLen(l int) int {
	scale := b.FFTSize
	if l%7 == 0 { // first symbol of each slot
		return 160 * scale / 2048
	}
	return 144 * scale / 2048
}

// MCSInfo is the PUSCH modulation and TBS index for one MCS.
type MCSInfo struct {
	MCS    int
	Scheme modulation.Scheme
	ITBS   int
}

// MCSTable maps MCS 0..28 per TS 36.213 Table 8.6.1-1.
func MCSTable(mcs int) (MCSInfo, error) {
	switch {
	case mcs >= 0 && mcs <= 10:
		return MCSInfo{MCS: mcs, Scheme: modulation.QPSK, ITBS: mcs}, nil
	case mcs >= 11 && mcs <= 20:
		return MCSInfo{MCS: mcs, Scheme: modulation.QAM16, ITBS: mcs - 1}, nil
	case mcs >= 21 && mcs <= 28:
		return MCSInfo{MCS: mcs, Scheme: modulation.QAM64, ITBS: mcs - 2}, nil
	default:
		return MCSInfo{}, fmt.Errorf("lte: MCS %d out of range", mcs)
	}
}

// tbsColumns holds the TS 36.213 Table 7.1.7.2.1-1 columns for the PRB
// widths exercised by this reproduction (25 = 5 MHz, 50 = 10 MHz,
// 100 = 20 MHz), indexed by I_TBS 0..26.
var tbsColumns = map[int][27]int{
	25: {
		680, 904, 1096, 1416, 1800, 2216, 2600, 3112, 3496, 4008,
		4392, 4968, 5736, 6456, 7224, 7736, 7992, 9144, 9912, 10680,
		11832, 12576, 13536, 14112, 15264, 15840, 18336,
	},
	50: {
		1384, 1800, 2216, 2856, 3624, 4392, 5160, 6200, 6968, 7992,
		8760, 9912, 11448, 12960, 14112, 15264, 16416, 18336, 19848, 21384,
		23688, 25456, 27376, 28336, 30576, 31704, 36696,
	},
	100: {
		2792, 3624, 4584, 5736, 7224, 8760, 10296, 12216, 14112, 15840,
		17568, 19848, 22920, 25456, 28336, 30576, 32856, 36696, 39232, 43816,
		46888, 51024, 55056, 57336, 61664, 63776, 75376,
	},
}

// TBS returns the transport block size in bits for an I_TBS index and PRB
// allocation. Only the PRB widths in tbsColumns are supported; the paper's
// experiments use full-band allocations (100% PRB utilization).
func TBS(itbs, nPRB int) (int, error) {
	col, ok := tbsColumns[nPRB]
	if !ok {
		return 0, fmt.Errorf("lte: no TBS column for %d PRBs (supported: 25, 50, 100)", nPRB)
	}
	if itbs < 0 || itbs >= len(col) {
		return 0, fmt.Errorf("lte: I_TBS %d out of range", itbs)
	}
	return col[itbs], nil
}

// TransportBlockSize resolves an MCS directly to (TBS bits, scheme).
func TransportBlockSize(mcs, nPRB int) (tbs int, scheme modulation.Scheme, err error) {
	info, err := MCSTable(mcs)
	if err != nil {
		return 0, 0, err
	}
	tbs, err = TBS(info.ITBS, nPRB)
	return tbs, info.Scheme, err
}

// SubcarrierLoad computes the paper's D: transport-block bits per subframe
// RE for a given MCS and bandwidth.
func SubcarrierLoad(mcs int, bw Bandwidth) (float64, error) {
	tbs, _, err := TransportBlockSize(mcs, bw.PRB)
	if err != nil {
		return 0, err
	}
	return float64(tbs) / float64(bw.TotalREs()), nil
}

// ThroughputMbps is the nominal PHY throughput for an MCS: one transport
// block per 1 ms subframe.
func ThroughputMbps(mcs int, bw Bandwidth) (float64, error) {
	tbs, _, err := TransportBlockSize(mcs, bw.PRB)
	if err != nil {
		return 0, err
	}
	return float64(tbs) / 1000, nil
}

// CodewordBits returns G, the number of channel bits available to the PUSCH
// codeword: data REs × modulation order.
func CodewordBits(mcs int, bw Bandwidth) (int, error) {
	info, err := MCSTable(mcs)
	if err != nil {
		return 0, err
	}
	return bw.DataREs() * info.Scheme.Order(), nil
}
