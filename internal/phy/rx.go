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

// TaskName identifies a receive-chain task. ChEst is folded into the
// paper's "demod" task; it is kept as a separate barrier stage because the
// per-symbol demod subtasks all read the channel estimate.
type TaskName string

// The receive tasks in dependency order.
const (
	TaskFFT    TaskName = "fft"
	TaskChEst  TaskName = "chest"
	TaskDemod  TaskName = "demod"
	TaskDecode TaskName = "decode"
)

// Stage is one task of the receive chain: its subtasks are mutually
// independent and may execute concurrently, but a stage must fully complete
// before the next begins (Fig. 5's precedence constraint).
type Stage struct {
	Name     TaskName
	Subtasks []func()
}

// Result reports the outcome of decoding one subframe.
//
// Its slices (and Payload) alias receiver scratch that is reused by the next
// Pipeline/Process call on the same Receiver; callers that retain a Result
// across subframes must copy what they need.
type Result struct {
	Payload         []byte // TBS decoded bits (only meaningful when OK)
	OK              bool   // transport-block CRC24A passed
	BlockOK         []bool // per-code-block CRC outcome
	BlockIterations []int  // turbo iterations per code block
	Iterations      int    // max over blocks — the paper's L
}

// Receiver decodes PUSCH subframes. A Receiver processes one subframe at a
// time (its scratch state is reused between subframes); within a subframe,
// the subtasks of one stage may run concurrently on multiple goroutines.
//
// The steady-state hot path (Pipeline, the subtasks, Result, Process) is
// allocation-free: the stage decomposition is built once at construction and
// every subtask owns preallocated scratch indexed by its subtask identity.
type Receiver struct {
	cfg    Config
	layout *codingLayout
	plan   *fft.Plan
	pilot  []complex128

	rms        []*turbo.RateMatcher
	decoders   []*turbo.Decoder
	rawCovered []bool    // [block] rate matching covers all systematic bits at rv 0
	descramb   []float64 // scrambling sequence as ±1 LLR sign multipliers

	// Cached stage decomposition. The subtask closures read the per-call
	// inputs from curIQ/curN0, which Pipeline sets before returning stages.
	stages      []Stage
	symbolStart []int // sample offset of each symbol past its CP
	curIQ       [][]complex128
	curN0       float64

	// Per-subtask scratch. Buffers are indexed by subtask identity
	// (antenna×symbol, antenna, data symbol, code block), so concurrent
	// subtasks of one stage never share a buffer.
	fftBufs  [][]complex128      // [antenna·symbols+l] FFT working buffer
	chRaw    [][]complex128      // [antenna] raw pre-smoothing estimate
	eqBufs   [][]complex128      // [data symbol] MRC/de-precode buffer
	denBufs  [][]float64         // [data symbol] per-subcarrier MRC weight
	idftWork [][]complex128      // [data symbol] Bluestein scratch
	soft     [][3][]float64      // [block] dematched d0/d1/d2 streams
	checks   []func([]byte) bool // [block] CRC early-termination hook

	// per-subframe scratch
	grid   [][][]complex128 // [antenna][symbol][subcarrier]
	chEst  [][]complex128   // [antenna][subcarrier]
	llrs   []float64        // codeword LLRs
	blocks [][]byte         // decoded code blocks
	tb     []byte           // joined transport block
	res    Result
}

// NewReceiver builds a receiver for cfg.
func NewReceiver(cfg Config) (*Receiver, error) {
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
	m := cfg.Bandwidth.Subcarriers()
	rx := &Receiver{
		cfg:    cfg,
		layout: layout,
		plan:   plan,
		pilot:  pilotSequence(cfg.CellID, m),
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
		rx.rms = append(rx.rms, rm)
		rx.decoders = append(rx.decoders, dec)
		// The iteration-0 raw-hard-decision pre-check only ever pays when
		// the initial transmission observes every systematic bit; decide
		// once here instead of sweeping K bits per subframe for nothing.
		rx.rawCovered = append(rx.rawCovered, rm.CoversSystematic(layout.es[i], 0))
	}
	scr := sequence.NewScrambler(sequence.PUSCHInit(cfg.RNTI, 0, cfg.Subframe, cfg.CellID), layout.g)
	// Stored as ±1.0 multipliers rather than bits: descrambling then is a
	// branch-free multiply (an exact IEEE sign flip) instead of a
	// data-dependent branch per LLR, which mispredicts half the time on the
	// pseudo-random sequence.
	rx.descramb = make([]float64, layout.g)
	for i := range rx.descramb {
		rx.descramb[i] = 1 - 2*float64(scr.Bit(i))
	}
	rx.grid = make([][][]complex128, cfg.Antennas)
	for a := range rx.grid {
		rx.grid[a] = make([][]complex128, lte.SymbolsPerSubframe)
		for l := range rx.grid[a] {
			rx.grid[a][l] = make([]complex128, m)
		}
	}
	rx.chEst = make([][]complex128, cfg.Antennas)
	for a := range rx.chEst {
		rx.chEst[a] = make([]complex128, m)
	}
	rx.llrs = make([]float64, layout.g)
	rx.allocScratch()
	rx.buildStages()
	return rx, nil
}

// allocScratch sizes the per-subtask buffers and the reusable result state.
func (rx *Receiver) allocScratch() {
	bw := rx.cfg.Bandwidth
	m := bw.Subcarriers()
	seg := rx.layout.seg

	rx.fftBufs = make([][]complex128, rx.cfg.Antennas*lte.SymbolsPerSubframe)
	for i := range rx.fftBufs {
		rx.fftBufs[i] = make([]complex128, bw.FFTSize)
	}
	rx.chRaw = make([][]complex128, rx.cfg.Antennas)
	for a := range rx.chRaw {
		rx.chRaw[a] = make([]complex128, m)
	}
	rx.eqBufs = make([][]complex128, len(dataSymbolIndices))
	rx.denBufs = make([][]float64, len(dataSymbolIndices))
	rx.idftWork = make([][]complex128, len(dataSymbolIndices))
	for ds := range rx.eqBufs {
		rx.eqBufs[ds] = make([]complex128, m)
		rx.denBufs[ds] = make([]float64, m)
		rx.idftWork[ds] = make([]complex128, fft.WorkLen(m))
	}

	rx.soft = make([][3][]float64, seg.C)
	rx.checks = make([]func([]byte) bool, seg.C)
	rx.blocks = make([][]byte, seg.C)
	for r, k := range seg.Sizes {
		d := k + 4
		rx.soft[r] = [3][]float64{
			make([]float64, d), make([]float64, d), make([]float64, d),
		}
		rx.blocks[r] = make([]byte, k)
		rx.checks[r] = func(b []byte) bool {
			if seg.C > 1 {
				return bits.CheckCRC24B(b)
			}
			// Single block: the transport-block CRC24A serves as the check,
			// computed past any filler bits.
			return bits.CheckCRC24A(b[seg.F:])
		}
	}
	rx.tb = make([]byte, seg.B)
	rx.res = Result{
		BlockOK:         make([]bool, seg.C),
		BlockIterations: make([]int, seg.C),
	}

	rx.symbolStart = make([]int, lte.SymbolsPerSubframe)
	pos := 0
	for l := 0; l < lte.SymbolsPerSubframe; l++ {
		rx.symbolStart[l] = pos + bw.CPLen(l) // skip CP
		pos += bw.CPLen(l) + bw.FFTSize
	}
}

// buildStages constructs the staged subtask decomposition once. The closures
// read the current subframe's inputs from rx.curIQ / rx.curN0.
func (rx *Receiver) buildStages() {
	// Stage 1: FFT — one subtask per (antenna, symbol).
	fftStage := Stage{Name: TaskFFT}
	for a := 0; a < rx.cfg.Antennas; a++ {
		for l := 0; l < lte.SymbolsPerSubframe; l++ {
			a, l := a, l
			fftStage.Subtasks = append(fftStage.Subtasks, func() { rx.fftSymbol(a, l) })
		}
	}

	// Stage 2: channel estimation — one subtask per antenna.
	chestStage := Stage{Name: TaskChEst}
	for a := 0; a < rx.cfg.Antennas; a++ {
		a := a
		chestStage.Subtasks = append(chestStage.Subtasks, func() { rx.estimateChannel(a) })
	}

	// Stage 3: demod — one subtask per data symbol. Each subtask derives
	// its effective noise power locally (computing it once up front would
	// race with concurrent subtask execution); they agree by construction.
	// A non-positive n0 requests blind estimation from the DM-RS, resolved
	// lazily so it observes the completed FFT stage.
	demodStage := Stage{Name: TaskDemod}
	noise := func() float64 {
		if rx.curN0 > 0 {
			return rx.curN0
		}
		return rx.EstimateNoise()
	}
	for ds := range dataSymbolIndices {
		ds := ds
		demodStage.Subtasks = append(demodStage.Subtasks, func() { rx.demodSymbol(ds, noise()) })
	}

	// Stage 4: decode — one subtask per code block.
	decodeStage := Stage{Name: TaskDecode}
	for r := 0; r < rx.layout.seg.C; r++ {
		r := r
		decodeStage.Subtasks = append(decodeStage.Subtasks, func() { rx.decodeBlock(r) })
	}

	rx.stages = []Stage{fftStage, chestStage, demodStage, decodeStage}
}

// CodeBlocks returns the number of turbo code blocks C — the decode task's
// subtask count.
func (rx *Receiver) CodeBlocks() int { return rx.layout.seg.C }

// Pipeline stages the subtask decomposition for one received subframe. iq
// holds one sample slice per antenna; n0 is the complex noise power per
// subcarrier. Stages must run in order; subtasks within a stage are
// independent. Call Result only after every subtask of every stage ran.
//
// The returned stages are cached on the Receiver (Pipeline does not
// allocate); the receiver retains iq until the next Pipeline call.
func (rx *Receiver) Pipeline(iq [][]complex128, n0 float64) ([]Stage, error) {
	bw := rx.cfg.Bandwidth
	if len(iq) != rx.cfg.Antennas {
		return nil, fmt.Errorf("phy: %d antenna streams, want %d", len(iq), rx.cfg.Antennas)
	}
	for a, s := range iq {
		if len(s) != bw.SamplesPerSubframe() {
			return nil, fmt.Errorf("phy: antenna %d has %d samples, want %d", a, len(s), bw.SamplesPerSubframe())
		}
	}
	rx.curIQ = iq
	rx.curN0 = n0
	rx.res.OK = false
	rx.res.Payload = nil
	rx.res.Iterations = 0
	for r := range rx.res.BlockOK {
		rx.res.BlockOK[r] = false
		rx.res.BlockIterations[r] = 0
	}
	return rx.stages, nil
}

// fftSymbol demodulates OFDM symbol l of antenna a into the subcarrier grid.
func (rx *Receiver) fftSymbol(a, l int) {
	start := rx.symbolStart[l]
	demodulateOFDM(rx.plan, rx.curIQ[a][start:start+rx.cfg.Bandwidth.FFTSize],
		rx.fftBufs[a*lte.SymbolsPerSubframe+l], rx.grid[a][l])
}

// chEstSmoothing is the one-sided width of the frequency-domain boxcar
// applied to the raw per-subcarrier channel estimate (total window 9
// subcarriers). The DM-RS gives two noisy observations per subcarrier;
// averaging across neighbors trades a little frequency resolution — safe
// while the window stays well inside the channel's coherence bandwidth
// (~26 subcarriers even for EVA at 10 MHz) — for an ~6.5 dB cleaner
// estimate, which is what keeps low-SNR decoding effective.
const chEstSmoothing = 4

// estimateChannel averages the two DM-RS symbols of antenna a and smooths
// the estimate across frequency.
func (rx *Receiver) estimateChannel(a int) {
	m := rx.cfg.Bandwidth.Subcarriers()
	y1 := rx.grid[a][dmrsSymbol1]
	y2 := rx.grid[a][dmrsSymbol2]
	raw := rx.chRaw[a]
	for k := 0; k < m; k++ {
		raw[k] = (y1[k] + y2[k]) / (2 * rx.pilot[k])
	}
	for k := 0; k < m; k++ {
		lo, hi := k-chEstSmoothing, k+chEstSmoothing
		if lo < 0 {
			lo = 0
		}
		if hi >= m {
			hi = m - 1
		}
		var acc complex128
		for i := lo; i <= hi; i++ {
			acc += raw[i]
		}
		rx.chEst[a][k] = acc / complex(float64(hi-lo+1), 0)
	}
}

// kernelsEnabled selects demodFused, the two-pass AVX2 demodulator, over
// the scalar loops of demodSymbol, which stay the reference: the bits are
// the same (TestFrontEndDigests). Which one runs is decided by kernelsHW,
// the CPUID probe; tests clear the variable to run the scalar code.
var kernelsEnabled = kernelsHW

// demodSymbol equalizes (MRC), de-precodes and demaps data symbol ds,
// writing LLRs into the codeword buffer and descrambling them in place.
func (rx *Receiver) demodSymbol(ds int, n0 float64) {
	bw := rx.cfg.Bandwidth
	m := bw.Subcarriers()
	if kernelsEnabled && m%2 == 0 {
		rx.demodFused(ds, n0)
		return
	}
	l := dataSymbolIndices[ds]
	eq := rx.eqBufs[ds][:m]
	den := rx.denBufs[ds][:m]
	// Antenna-major accumulation: each pass streams one channel-estimate row
	// and one grid row with the indexing hoisted out of the subcarrier loop,
	// instead of re-resolving rx.chEst[a][k] / rx.grid[a][l][k] per element.
	for a := 0; a < rx.cfg.Antennas; a++ {
		h := rx.chEst[a][:m]
		y := rx.grid[a][l][:m]
		if a == 0 {
			for k := 0; k < m; k++ {
				hk, yk := h[k], y[k]
				eq[k] = complex(real(hk), -imag(hk)) * yk
				den[k] = real(hk)*real(hk) + imag(hk)*imag(hk)
			}
		} else {
			for k := 0; k < m; k++ {
				hk, yk := h[k], y[k]
				eq[k] += complex(real(hk), -imag(hk)) * yk
				den[k] += real(hk)*real(hk) + imag(hk)*imag(hk)
			}
		}
	}
	var invDenSum float64
	for k := 0; k < m; k++ {
		d := den[k]
		if d < 1e-12 {
			d = 1e-12
		}
		// d is real, so equalization is a real reciprocal and scale —
		// avoids the full complex-division algorithm in the hot loop.
		inv := 1 / d
		eq[k] = complex(real(eq[k])*inv, imag(eq[k])*inv)
		invDenSum += inv
	}
	// SC-FDMA de-precoding: IDFT scaled by √M inverts the transmitter's
	// DFT/√M. The per-sample noise power afterwards is the mean of the
	// per-subcarrier post-MRC powers.
	fft.IDFTInto(eq, eq, rx.idftWork[ds])
	sqrtM := math.Sqrt(float64(m))
	for i := range eq {
		eq[i] = complex(real(eq[i])*sqrtM, imag(eq[i])*sqrtM)
	}
	n0Eff := n0 * invDenSum / float64(m)
	qm := rx.layout.scheme.Order()
	base := ds * m * qm
	dst := rx.llrs[base : base+m*qm]
	modulation.DemapInto(dst, rx.layout.scheme, eq, n0Eff)
	for i, s := range rx.descramb[base : base+m*qm] {
		dst[i] *= s
	}
}

// demodFused is demodSymbol with each subcarrier read once on the way into
// the de-precoding IDFT and once on the way out. Pass in (mrcConjAVX2) does
// the MRC accumulation over all antennas, the clamped reciprocal and the
// conjugation IDFTInto would apply, writing the IDFT input into the
// symbol's scratch; the forward transform runs from there into eq; pass out
// (modulation.DemapConjInto) applies the IDFT's conjugate and 1/M, then √M,
// as separate multiplies, demaps and descrambles into the codeword buffer.
func (rx *Receiver) demodFused(ds int, n0 float64) {
	m := rx.cfg.Bandwidth.Subcarriers()
	in := rx.idftWork[ds][:m]
	eq := rx.eqBufs[ds][:m]
	invDenSum := mrcConjAVX2(&in[0], &rx.chEst[0], &rx.grid[0], dataSymbolIndices[ds], rx.cfg.Antennas, m/2)
	fft.DFTFrom(eq, in)
	n0Eff := n0 * invDenSum / float64(m)
	qm := rx.layout.scheme.Order()
	base := ds * m * qm
	modulation.DemapConjInto(rx.llrs[base:base+m*qm], rx.descramb[base:base+m*qm],
		rx.layout.scheme, eq, 1/float64(m), math.Sqrt(float64(m)), n0Eff)
}

// decodeBlock rate-dematches and turbo-decodes code block r.
func (rx *Receiver) decodeBlock(r int) {
	e := rx.layout.es[r]
	off := rx.layout.offs[r]
	s0, s1, s2 := rx.soft[r][0], rx.soft[r][1], rx.soft[r][2]
	clear(s0)
	clear(s1)
	clear(s2)
	if err := rx.rms[r].DematchInto(s0, s1, s2, rx.llrs[off:off+e], 0); err != nil {
		// Unreachable by construction (E > 0 always); treat as a failed block.
		rx.res.BlockOK[r] = false
		rx.res.BlockIterations[r] = rx.cfg.maxIter()
		return
	}
	dec := rx.decoders[r]
	dec.PrecheckRaw = rx.rawCovered[r]
	res := dec.Decode(s0, s1, s2, rx.checks[r])
	copy(rx.blocks[r], res.Bits)
	rx.res.BlockOK[r] = res.OK
	rx.res.BlockIterations[r] = res.Iterations
}

// Result assembles the transport block after all stages completed. The
// returned Result aliases receiver scratch — see the Result type docs.
func (rx *Receiver) Result() Result {
	res := rx.res
	for _, it := range res.BlockIterations {
		if it > res.Iterations {
			res.Iterations = it
		}
	}
	tb, err := rx.layout.seg.JoinInto(rx.tb, rx.blocks)
	if err == nil && bits.CheckCRC24A(tb) {
		res.OK = true
		res.Payload = tb[:len(tb)-24]
	}
	rx.res = res
	return res
}

// Process is the convenience single-threaded path: it runs every stage
// serially and returns the result.
func (rx *Receiver) Process(iq [][]complex128, n0 float64) (Result, error) {
	stages, err := rx.Pipeline(iq, n0)
	if err != nil {
		return Result{}, err
	}
	for _, st := range stages {
		for _, sub := range st.Subtasks {
			sub()
		}
	}
	return rx.Result(), nil
}

// EstimateNoise measures the post-FFT noise power from the DM-RS symbols:
// the two pilot observations of each subcarrier share the channel, so half
// the power of their difference is the per-component noise power. A real
// receiver uses this in place of an externally supplied n0; Process and
// Pipeline accept n0 <= 0 to request it.
func (rx *Receiver) EstimateNoise() float64 {
	m := rx.cfg.Bandwidth.Subcarriers()
	var acc float64
	n := 0
	for a := 0; a < rx.cfg.Antennas; a++ {
		y1 := rx.grid[a][dmrsSymbol1]
		y2 := rx.grid[a][dmrsSymbol2]
		for k := 0; k < m; k++ {
			d := y1[k] - y2[k]
			acc += real(d)*real(d) + imag(d)*imag(d)
			n++
		}
	}
	if n == 0 {
		return 1e-12
	}
	// Var(y1-y2) = 2·n0; the estimate is per complex sample.
	est := acc / (2 * float64(n))
	if est < 1e-12 {
		est = 1e-12
	}
	return est
}
