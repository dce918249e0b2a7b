package turbo

import "fmt"

// LLR convention throughout: positive ⇒ bit 0 more likely (matching
// internal/modulation's demappers). Branch symbols map bit b to ±1 via
// (1 - 2b).

// Decoder is an iterative max-log-MAP turbo decoder for one block size K,
// running on int16 fixed-point metrics: input LLRs are quantized to the
// modulation package's Q9.6 format at the Decode boundary and the constituent
// recursions run on saturating int16 state metrics — the standard
// SIMD-decoder layout (see quant.go for the metric conventions, radix4.go for
// the kernel dispatch). A Decoder holds scratch buffers and is not safe for
// concurrent use; the PHY chain allocates one per code block.
type Decoder struct {
	K  int
	il *Interleaver

	// MaxIterations bounds the full decoder iterations (the paper's Lm,
	// default 4; each full iteration runs both constituent decoders).
	MaxIterations int

	// PrecheckRaw enables the iteration-0 check of the raw systematic hard
	// decisions before any constituent pass (default on). It is always
	// correct — it accepts only on a passing check — but is a wasted O(K)
	// sweep when rate-matching punctured systematic positions that only
	// iterations can recover; receivers disable it per block via
	// RateMatcher.CoversSystematic.
	PrecheckRaw bool

	// scratch (see quant.go for the Q-format conventions)
	hard       []byte  // hard decisions, natural order — Result.Bits
	q0, q1, q2 []int16 // quantized input streams, K+4 each
	qsysI      []int16 // interleaved quantized systematic LLRs
	qla        []int16 // a-priori for decoder 1
	qla2       []int16 // a-priori for decoder 2
	qle        []int16 // extrinsic out
	qle1       []int16 // decoder 1 extrinsic, kept for the final total
	qalpha     []int16 // (K+1) × numStates forward metrics
	qbeta      []int32 // (K−K/2) × numStates backward metrics β_{K/2+1..K}, unnormalized (kernel stepper)
	qg         []int16 // 2K per-step metric halves gs = lsys+la, gp = lpar: interleaved pairs (kernel stepper) or gs row then gp row (scalar)
	qhardI     []byte  // decoder-2 hard decisions, interleaved domain
	qhardTmp   []byte  // kernel scratch when decisions are not wanted
}

// NewDecoder builds a decoder for block size k.
func NewDecoder(k int) (*Decoder, error) {
	il, err := NewInterleaver(k)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		K:             k,
		il:            il,
		MaxIterations: 4,
		PrecheckRaw:   true,
		hard:          make([]byte, k),
		q0:            make([]int16, k+4),
		q1:            make([]int16, k+4),
		q2:            make([]int16, k+4),
		qsysI:         make([]int16, k),
		qla:           make([]int16, k),
		qla2:          make([]int16, k),
		qle:           make([]int16, k),
		qle1:          make([]int16, k),
		qalpha:        make([]int16, (k+1)*numStates),
		qbeta:         make([]int32, (k-k/2)*numStates),
		qg:            make([]int16, 2*k),
		qhardI:        make([]byte, k),
		qhardTmp:      make([]byte, k),
	}, nil
}

// Result reports the outcome of a Decode call.
type Result struct {
	Bits       []byte // K hard-decision bits (aliases decoder scratch; copy to retain)
	Iterations int    // full iterations executed (0..MaxIterations; 0 ⇒ the raw hard decisions were returned)
	OK         bool   // check function accepted the bits
}

// Decode runs iterative decoding over the three soft streams (each K+4 LLRs,
// as produced by rate dematching). check, if non-nil, is evaluated on the
// hard decisions after each constituent pass (every half-iteration) and
// decoding stops early when it returns true — the LTE receiver uses the
// code-block CRC here, and the returned iteration count (rounded up to full
// iterations) is the paper's L. Before the first constituent pass, the raw
// systematic hard decisions are checked directly (Iterations 0 on success):
// at high SNR the uncoded decisions are already CRC-clean and the trellis
// never has to run, which is where most subframes land in a healthy cell.
// With MaxIterations < 1 those raw decisions are the answer, whatever check
// says of them. Decode does not allocate: all intermediate state lives in
// the Decoder's scratch buffers.
func (d *Decoder) Decode(s0, s1, s2 []float64, check func([]byte) bool) Result {
	k := d.K
	if len(s0) != k+4 || len(s1) != k+4 || len(s2) != k+4 {
		panic(fmt.Sprintf("turbo: stream lengths (%d,%d,%d), want %d", len(s0), len(s1), len(s2), k+4))
	}
	if d.MaxIterations < 1 || (check != nil && d.PrecheckRaw) {
		hard := d.hard
		for i, v := range s0[:k] {
			if v < 0 {
				hard[i] = 1
			} else {
				hard[i] = 0
			}
		}
		ok := check == nil || check(hard)
		if ok || d.MaxIterations < 1 {
			return Result{Bits: hard, OK: ok}
		}
	}
	return d.decodeQuant(s0, s1, s2, check)
}
