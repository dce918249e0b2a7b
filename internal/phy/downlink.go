package phy

import (
	"fmt"
	"math"

	"rtopex/internal/bits"
	"rtopex/internal/fft"
	"rtopex/internal/lte"
	"rtopex/internal/modulation"
	"rtopex/internal/sequence"
	"rtopex/internal/turbo"
)

// Downlink (PDSCH) chain — the Tx-processing side of the paper's Fig. 8
// timeline: the C-RAN node must encode the response subframe (carrying the
// ACK/NACK and downlink data) starting 1 ms before its over-the-air
// transmission. The chain shares the coding stack with the uplink but uses
// plain OFDM (no SC-FDMA transform precoding) and cell-specific reference
// signals (CRS) scattered through the grid instead of full DM-RS symbols.

// crsSymbols are the OFDM symbols carrying CRS for antenna port 0
// (symbols 0 and 4 of each slot).
var crsSymbols = []int{0, 4, 7, 11}

// crsSpacing is the CRS frequency stride (one pilot every 6 subcarriers).
const crsSpacing = 6

// crsShift returns the cell-specific frequency shift of the CRS on symbol
// l: ports alternate a 3-subcarrier offset between the slot's two CRS
// symbols, rotated by the cell identity.
func crsShift(cellID uint16, l int) int {
	base := int(cellID) % crsSpacing
	if l == 4 || l == 11 {
		return (base + 3) % crsSpacing
	}
	return base
}

// isCRS reports whether (symbol l, subcarrier k) carries a CRS pilot.
func isCRS(cellID uint16, l, k int) bool {
	for _, cl := range crsSymbols {
		if cl == l {
			return k%crsSpacing == crsShift(cellID, l)
		}
	}
	return false
}

// dlDataREs counts PDSCH data REs per subframe for a bandwidth.
func dlDataREs(cellID uint16, bw lte.Bandwidth) int {
	m := bw.Subcarriers()
	n := m * lte.SymbolsPerSubframe
	for _, l := range crsSymbols {
		_ = l
		n -= m / crsSpacing
	}
	return n
}

// dlCodingLayout mirrors codingLayout for the downlink RE budget.
func newDLCodingLayout(cfg Config) (*codingLayout, error) {
	tbs, scheme, err := lte.TransportBlockSize(cfg.MCS, cfg.Bandwidth.PRB)
	if err != nil {
		return nil, err
	}
	g := dlDataREs(cfg.CellID, cfg.Bandwidth) * scheme.Order()
	seg, err := turbo.Segment(tbs + 24)
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
	return &codingLayout{tbs: tbs, g: g, scheme: scheme, seg: seg, es: es, offs: offs}, nil
}

// DLTransmitter encodes PDSCH subframes — the C-RAN node's Tx processing.
type DLTransmitter struct {
	cfg    Config
	layout *codingLayout
	plan   *fft.Plan
	crs    []complex128 // pilot values, one per (symbol, pilot index)
}

// NewDLTransmitter validates cfg and precomputes the downlink layout.
func NewDLTransmitter(cfg Config) (*DLTransmitter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, err := newDLCodingLayout(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := fft.NewPlan(cfg.Bandwidth.FFTSize)
	if err != nil {
		return nil, err
	}
	return &DLTransmitter{
		cfg:    cfg,
		layout: layout,
		plan:   plan,
		crs:    pilotSequence(cfg.CellID^0x2a5, crsPilotCount(cfg.Bandwidth)),
	}, nil
}

func crsPilotCount(bw lte.Bandwidth) int {
	return len(crsSymbols) * bw.Subcarriers() / crsSpacing
}

// TBS returns the downlink transport block size in bits.
func (tx *DLTransmitter) TBS() int { return tx.layout.tbs }

// CodeBlocks returns the number of turbo code blocks.
func (tx *DLTransmitter) CodeBlocks() int { return tx.layout.seg.C }

// Transmit encodes a downlink transport block into one OFDM subframe.
func (tx *DLTransmitter) Transmit(payload []byte) ([]complex128, error) {
	if len(payload) != tx.layout.tbs {
		return nil, fmt.Errorf("phy: payload %d bits, want TBS %d", len(payload), tx.layout.tbs)
	}
	// Coding: identical stack to the uplink.
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
	scr := sequence.NewScrambler(sequence.PUSCHInit(tx.cfg.RNTI, 0, tx.cfg.Subframe, tx.cfg.CellID), len(codeword))
	scr.Apply(codeword)
	syms := modulation.Map(tx.layout.scheme, codeword)

	// OFDM mapping: walk the grid in (symbol, subcarrier) order, placing
	// CRS pilots at their positions and data everywhere else.
	bw := tx.cfg.Bandwidth
	m := bw.Subcarriers()
	n := bw.FFTSize
	sqrtN := math.Sqrt(float64(n))
	out := make([]complex128, 0, bw.SamplesPerSubframe())
	si, pi := 0, 0
	for l := 0; l < lte.SymbolsPerSubframe; l++ {
		row := make([]complex128, m)
		for k := range row {
			if isCRS(tx.cfg.CellID, l, k) {
				row[k] = tx.crs[pi]
				pi++
			} else {
				row[k] = syms[si]
				si++
			}
		}
		tdom := make([]complex128, n)
		placeSubcarriers(tdom, row)
		tx.plan.Inverse(tdom)
		for i := range tdom {
			tdom[i] *= complex(sqrtN, 0)
		}
		cp := bw.CPLen(l)
		out = append(out, tdom[n-cp:]...)
		out = append(out, tdom...)
	}
	if si != len(syms) {
		return nil, fmt.Errorf("phy: mapped %d of %d data symbols", si, len(syms))
	}
	return out, nil
}

// DLReceiver is the UE-side PDSCH receiver used to validate the node's Tx
// processing end to end: CRS-based channel estimation with frequency
// interpolation, MRC equalization, demapping and turbo decoding.
type DLReceiver struct {
	cfg    Config
	layout *codingLayout
	plan   *fft.Plan
	crs    []complex128

	rms      []*turbo.RateMatcher
	decoders []*turbo.Decoder
	descramb []byte
}

// NewDLReceiver builds a UE-side receiver for cfg.
func NewDLReceiver(cfg Config) (*DLReceiver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	layout, err := newDLCodingLayout(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := fft.NewPlan(cfg.Bandwidth.FFTSize)
	if err != nil {
		return nil, err
	}
	rx := &DLReceiver{
		cfg:    cfg,
		layout: layout,
		plan:   plan,
		crs:    pilotSequence(cfg.CellID^0x2a5, crsPilotCount(cfg.Bandwidth)),
	}
	for i, k := range layout.seg.Sizes {
		rm, err := turbo.NewRateMatcher(k)
		if err != nil {
			return nil, err
		}
		dec, err := turbo.NewDecoder(k)
		if err != nil {
			return nil, err
		}
		dec.MaxIterations = cfg.maxIter()
		dec.PrecheckRaw = rm.CoversSystematic(layout.es[i], 0)
		rx.rms = append(rx.rms, rm)
		rx.decoders = append(rx.decoders, dec)
	}
	scr := sequence.NewScrambler(sequence.PUSCHInit(cfg.RNTI, 0, cfg.Subframe, cfg.CellID), layout.g)
	rx.descramb = make([]byte, layout.g)
	for i := range rx.descramb {
		rx.descramb[i] = scr.Bit(i)
	}
	return rx, nil
}

// TBS returns the downlink transport block size in bits.
func (rx *DLReceiver) TBS() int { return rx.layout.tbs }

// Process decodes one downlink subframe from per-antenna samples.
func (rx *DLReceiver) Process(iq [][]complex128, n0 float64) (Result, error) {
	bw := rx.cfg.Bandwidth
	if len(iq) != rx.cfg.Antennas {
		return Result{}, fmt.Errorf("phy: %d antenna streams, want %d", len(iq), rx.cfg.Antennas)
	}
	m := bw.Subcarriers()
	n := bw.FFTSize

	// OFDM demodulation into the grid.
	grid := make([][][]complex128, rx.cfg.Antennas)
	buf := make([]complex128, n)
	for a := range grid {
		if len(iq[a]) != bw.SamplesPerSubframe() {
			return Result{}, fmt.Errorf("phy: antenna %d has %d samples", a, len(iq[a]))
		}
		grid[a] = make([][]complex128, lte.SymbolsPerSubframe)
		pos := 0
		for l := range grid[a] {
			pos += bw.CPLen(l)
			grid[a][l] = make([]complex128, m)
			demodulateOFDM(rx.plan, iq[a][pos:pos+n], buf, grid[a][l])
			pos += n
		}
	}

	// CRS channel estimation: least squares at pilot positions, averaged
	// across the four CRS symbols, linearly interpolated in frequency.
	chEst := make([][]complex128, rx.cfg.Antennas)
	for a := 0; a < rx.cfg.Antennas; a++ {
		chEst[a] = rx.estimateFromCRS(grid[a])
	}

	// Equalize data REs in grid order, demap and descramble.
	llrs := make([]float64, 0, rx.layout.g)
	for l := 0; l < lte.SymbolsPerSubframe; l++ {
		var eq []complex128
		var invDenSum float64
		for k := 0; k < m; k++ {
			if isCRS(rx.cfg.CellID, l, k) {
				continue
			}
			var num complex128
			var den float64
			for a := 0; a < rx.cfg.Antennas; a++ {
				h := chEst[a][k]
				y := grid[a][l][k]
				num += complex(real(h), -imag(h)) * y
				den += real(h)*real(h) + imag(h)*imag(h)
			}
			if den < 1e-12 {
				den = 1e-12
			}
			eq = append(eq, num/complex(den, 0))
			invDenSum += 1 / den
		}
		n0Eff := n0 * invDenSum / float64(len(eq))
		llrs = append(llrs, modulation.Demap(rx.layout.scheme, eq, n0Eff)...)
	}
	if len(llrs) != rx.layout.g {
		return Result{}, fmt.Errorf("phy: %d LLRs, want %d", len(llrs), rx.layout.g)
	}
	for i := range llrs {
		if rx.descramb[i] == 1 {
			llrs[i] = -llrs[i]
		}
	}

	// Decode per code block.
	seg := rx.layout.seg
	res := Result{BlockOK: make([]bool, seg.C), BlockIterations: make([]int, seg.C)}
	blocks := make([][]byte, seg.C)
	for r := 0; r < seg.C; r++ {
		e := rx.layout.es[r]
		off := rx.layout.offs[r]
		s0, s1, s2, err := rx.rms[r].Dematch(llrs[off:off+e], 0)
		if err != nil {
			return Result{}, err
		}
		check := func(b []byte) bool {
			if seg.C > 1 {
				return bits.CheckCRC24B(b)
			}
			return bits.CheckCRC24A(b[seg.F:])
		}
		dres := rx.decoders[r].Decode(s0, s1, s2, check)
		blocks[r] = append([]byte(nil), dres.Bits...)
		res.BlockOK[r] = dres.OK
		res.BlockIterations[r] = dres.Iterations
		if dres.Iterations > res.Iterations {
			res.Iterations = dres.Iterations
		}
	}
	tb, err := seg.Join(blocks)
	if err == nil && bits.CheckCRC24A(tb) {
		res.OK = true
		res.Payload = tb[:len(tb)-24]
	}
	return res, nil
}

// estimateFromCRS produces a per-subcarrier channel estimate from the
// scattered pilots: LS at each pilot, time-averaged over the CRS symbols
// that share a frequency offset, then linear interpolation across
// frequency (with edge extrapolation held constant).
func (rx *DLReceiver) estimateFromCRS(sym [][]complex128) []complex128 {
	m := rx.cfg.Bandwidth.Subcarriers()
	type obs struct {
		sum complex128
		n   int
	}
	at := make(map[int]*obs)
	pi := 0
	for _, l := range crsSymbols {
		shift := crsShift(rx.cfg.CellID, l)
		for k := shift; k < m; k += crsSpacing {
			ls := sym[l][k] / rx.crs[pi]
			pi++
			o := at[k]
			if o == nil {
				o = &obs{}
				at[k] = o
			}
			o.sum += ls
			o.n++
		}
	}
	// Collect pilot subcarriers in order.
	var ks []int
	for k := 0; k < m; k++ {
		if at[k] != nil {
			ks = append(ks, k)
		}
	}
	est := make([]complex128, m)
	for i := 0; i < len(ks); i++ {
		k := ks[i]
		est[k] = at[k].sum / complex(float64(at[k].n), 0)
	}
	// Interpolate between pilots; hold edges.
	for i := 0; i+1 < len(ks); i++ {
		k0, k1 := ks[i], ks[i+1]
		for k := k0 + 1; k < k1; k++ {
			t := float64(k-k0) / float64(k1-k0)
			est[k] = est[k0]*complex(1-t, 0) + est[k1]*complex(t, 0)
		}
	}
	for k := 0; k < ks[0]; k++ {
		est[k] = est[ks[0]]
	}
	for k := ks[len(ks)-1] + 1; k < m; k++ {
		est[k] = est[ks[len(ks)-1]]
	}
	return est
}
