package turbo

import "rtopex/internal/modulation"

// Quantized max-log-MAP path.
//
// Input LLRs are quantized once, at the Decode boundary, to the Q9.6 format
// fixed in internal/modulation (LLRQScale = 64, rail ±LLRQMax = ±8191).
// Extrinsics are clamped back to the same rail after every constituent pass,
// so every soft quantity the decoder circulates — systematic, parity,
// a-priori, extrinsic — honours one invariant: |value| ≤ LLRQMax.
//
// Metric conventions, chosen so everything provably fits the integer widths:
//
//   - Branch metrics are DOUBLED relative to the float64 path: a branch with
//     symbols (u, z) contributes ±gs ± gp with gs = lsys+la and gp = lpar,
//     not ½ of that. Doubling every path metric by the same factor leaves
//     every max decision unchanged and drops the halving from the hot loop;
//     the a-posteriori LLR is recovered as (m0−m1)>>1. With the rail
//     invariant, |gs| ≤ 2·LLRQMax and |c| = |±gs±gp| ≤ 3·LLRQMax = 24573 —
//     comfortably int16, and int32 accumulators never come near overflow.
//
//   - State metrics are renormalized every trellis step by subtracting the
//     running row maximum (the standard SIMD-decoder layout), then saturated
//     at qFloor. The winning state sits at exactly 0, so stored rows live in
//     [qFloor, 0] and fit int16. Saturating the floor is harmless: a state
//     whose metric trails the winner by 32767 (512 LLR units) never competes.
//
//   - Unreachable states exist only near the trellis edges. The forward
//     recursion starts from state 0 and reaches all 8 states after 3 steps;
//     the backward recursion is seeded through the termination tail, from
//     which every step-K state reaches state 0, so beta is finite
//     everywhere. Guards therefore run only in a 3-step forward prologue and
//     a 3-step LLR epilogue (cold, table-driven); the hot loops are entirely
//     guard-free. Stored sentinel is qSent = -32768 — distinguishable from
//     real metrics, which saturate at qFloor = -32767 — and the prologue
//     computes in int32 with qSentI32 = −2²⁸ so sentinels cannot creep back
//     into contention through additions (|c| ≤ 24573 ≪ 2²⁸).
//
// constituentQ below is the scalar stepper for these conventions — the only
// one on hardware without AVX2 — and steps the whole forward recursion, then
// the whole backward one. radix4.go dispatches the same recursions to AVX2
// kernels (quant_avx2_amd64.s, lane layout documented there) on a two-phase
// schedule that meets at mid = K/2: first α from the prologue up to mid
// beside a β-only recursion from the tail down to mid, which stores its rows
// β_{mid+1..K} as 8×int32, unnormalized — exactly the values it holds, so
// nothing is rounded; then α from mid to K, taking each LLR from the
// stage's branch candidates and the stored β row, beside the fused β/LLR
// recursion from mid down to the epilogue over the stored α rows.
// Renormalization stays per forward stage, so both steppers clamp
// identically; every α, β, m0 and m1 is the same int32 on both, and a max
// over integers does not depend on the order it is taken in, so they
// produce identical bits.
const (
	// qSent marks an unreachable state in stored int16 alpha rows. It is
	// int16 minimum, one below the qFloor saturation rail, so a stored
	// value equals qSent if and only if the state was unreachable.
	qSent = -32768
	// qFloor is the saturation floor for normalized state metrics.
	qFloor int32 = -32767
	// qSentI32 is the in-register sentinel for the guarded edge passes.
	// Large enough in magnitude that sentinel+branch never beats a genuine
	// path, small enough that int32 sums cannot wrap.
	qSentI32 int32 = -1 << 28
)

// demuxTailsI16 splits the last four entries of the three quantized streams
// back into per-encoder tail LLRs, inverting the multiplexing in encodeWith.
func demuxTailsI16(s0, s1, s2 []int16, k int) (x1, z1, x2, z2 [3]int16) {
	x1 = [3]int16{s0[k], s2[k], s1[k+1]}
	z1 = [3]int16{s1[k], s0[k+1], s2[k+1]}
	x2 = [3]int16{s0[k+2], s2[k+2], s1[k+3]}
	z2 = [3]int16{s1[k+2], s0[k+3], s2[k+3]}
	return
}

// decodeQuant is the int16 iteration pipeline: per full iteration one
// decoder-1 pass on the natural order and one decoder-2 pass on the
// interleaved order, with the check evaluated after every pass.
func (d *Decoder) decodeQuant(s0, s1, s2 []float64, check func([]byte) bool) Result {
	k := d.K
	// The decoder-2 parity body is quantized lazily, before the first
	// decoder-2 pass: at operating SNR most blocks terminate after the first
	// decoder-1 pass and never need it. Its 4 tail elements are quantized
	// here — the termination tails straddle all three streams.
	modulation.QuantizeLLRsInto(d.q0, s0)
	modulation.QuantizeLLRsInto(d.q1, s1)
	for j := k; j < k+4; j++ {
		d.q2[j] = modulation.QuantizeLLR(s2[j])
	}
	sys, par1, par2 := d.q0[:k], d.q1[:k], d.q2[:k]
	x1, z1, x2, z2 := demuxTailsI16(d.q0, d.q1, d.q2, k)
	// Hard decisions fall out of the constituent passes for free: the
	// backward loop already computes the unclamped a-posteriori m0−m1 per
	// bit, so each pass writes sign bits as it goes (decoder 2's in the
	// interleaved domain, deinterleaved before the CRC). When check is nil
	// only the final pass needs decisions.
	var hard1 []byte
	if check != nil {
		hard1 = d.hard
	}

	res := Result{Bits: d.hard}
	for it := 1; it <= d.MaxIterations; it++ {
		res.Iterations = it
		la := d.qla
		if it == 1 {
			// The a-priori is identically zero before the first pass; nil la
			// lets the constituent pass skip the add entirely (and the
			// pipeline never has to clear d.qla — every later iteration
			// rewrites it in full via InverseI16).
			la = nil
		}
		d.constituentQR4(sys, par1, la, x1, z1, d.qle1, hard1)
		if check != nil && check(d.hard) {
			res.OK = true
			return res
		}

		if it == 1 {
			modulation.QuantizeLLRsInto(par2, s2[:k])
			d.il.PermuteI16(sys, d.qsysI)
		}
		var hard2 []byte
		if check != nil || it == d.MaxIterations {
			hard2 = d.qhardI
		}
		d.il.PermuteI16(d.qle1, d.qla2)
		d.constituentQR4(d.qsysI, par2, d.qla2, x2, z2, d.qle, hard2)
		d.il.InverseI16(d.qle, d.qla)
		if hard2 != nil {
			d.il.Inverse(d.qhardI, d.hard)
			if check != nil && check(d.hard) {
				res.OK = true
				return res
			}
		}
	}
	res.OK = check == nil
	return res
}

// constituentQ is one fixed-point max-log-MAP pass — systematic LLRs lsys,
// parity LLRs lpar, a-priori la (all length K), plus 3 termination
// systematic/parity LLRs; the extrinsic output goes to le — with doubled
// branch metrics and per-step renormalization as described in the header
// comment. The three recursions are unrolled over the 8-state LTE trellis
// (see trellis.go; TestConstituentWiring verifies the hardcoded wiring
// against the canonical tables); the table-driven prologue/epilogue are
// cross-checked against the unrolled wiring by the quantized tests.
//
// When hard is non-nil it receives this pass's hard decisions, in this
// pass's bit order: hard[i] is the sign bit of the unclamped a-posteriori
// m0−m1, taken before the extrinsic is clamped to the rail — the true
// max-log decision, at zero extra cost.
func (d *Decoder) constituentQ(lsys, lpar, la []int16, xTail, zTail [3]int16, le []int16, hard []byte) {
	k := d.K
	alpha := d.qalpha

	// Per-step metric halves: qg0 = lsys+la (systematic+a-priori), qg1 =
	// parity. Both int16-exact under the rail invariant. A nil la means
	// "identically zero" (the first decoder-1 pass), making qg0 a plain
	// copy of the systematic stream.
	qg0, qg1 := d.qg[:k], d.qg[k:]
	copy(qg1[:k], lpar[:k])
	if la == nil {
		copy(qg0[:k], lsys[:k])
	} else {
		for i := 0; i < k; i++ {
			qg0[i] = lsys[i] + la[i]
		}
	}

	// Forward prologue: steps 0..2 still have unreachable states, handled
	// in int32 with explicit sentinels, table-driven (cold path).
	av := forwardPrologueQ(alpha, qg0, qg1, k)
	pro := min(3, k)

	// Forward main loop: every state reachable, no guards. Metrics live in
	// int32 registers — the row computed at step i is both stored (int16,
	// for the backward pass) and carried directly into step i+1, so the hot
	// loop never reloads alpha. Rows are renormalized against the running
	// max and saturated at qFloor before the store.
	{
		b0, b1, b2, b3 := av[0], av[1], av[2], av[3]
		b4, b5, b6, b7 := av[4], av[5], av[6], av[7]
		for i := pro; i < k; i++ {
			next := (*[numStates]int16)(alpha[(i+1)*numStates:])
			gs, gp := int32(qg0[i]), int32(qg1[i])
			c0 := gs + gp // u=0, z=0
			c1 := gs - gp // u=0, z=1
			c2 := -c1     // u=1, z=0
			c3 := -c0     // u=1, z=1

			n0 := max(b0+c0, b4+c3)
			n1 := max(b0+c3, b4+c0)
			n2 := max(b1+c1, b5+c2)
			n3 := max(b1+c2, b5+c1)
			n4 := max(b2+c2, b6+c1)
			n5 := max(b2+c1, b6+c2)
			n6 := max(b3+c3, b7+c0)
			n7 := max(b3+c0, b7+c3)

			m := max(max(max(n0, n1), max(n2, n3)), max(max(n4, n5), max(n6, n7)))
			b0 = max(n0-m, qFloor)
			b1 = max(n1-m, qFloor)
			b2 = max(n2-m, qFloor)
			b3 = max(n3-m, qFloor)
			b4 = max(n4-m, qFloor)
			b5 = max(n5-m, qFloor)
			b6 = max(n6-m, qFloor)
			b7 = max(n7-m, qFloor)
			next[0], next[1], next[2], next[3] = int16(b0), int16(b1), int16(b2), int16(b3)
			next[4], next[5], next[6], next[7] = int16(b4), int16(b5), int16(b6), int16(b7)
		}
	}

	tb := tailBetaQ(xTail, zTail)

	// Backward recursion fused with LLR extraction: the beta row for step
	// i+1 lives in b0..b7 while le[i] is computed, then the row for step i
	// replaces it in the same registers. After the termination tail every
	// state is reachable, so beta needs no guards anywhere; only the alpha
	// reads at i < 3 do, and those drop to the table-driven epilogue.
	//
	// Beta lives in int32 registers — the kernel stepper stores half of it,
	// as the same int32 values — so unlike alpha it needs no per-row
	// renormalization: each step moves the row by at most
	// max|c| ≤ 3·LLRQMax ≈ 24.6k, so over K ≤ 6144 steps the absolute drift
	// stays under 1.6e8 — far inside int32 — and every m0/m1 sum below is a
	// row-relative difference where the drift cancels exactly.
	b0, b1, b2, b3 := tb[0], tb[1], tb[2], tb[3]
	b4, b5, b6, b7 := tb[4], tb[5], tb[6], tb[7]
	for i := k - 1; i >= 0; i-- {
		curA := (*[numStates]int16)(alpha[i*numStates:])
		gs, gp := int32(qg0[i]), int32(qg1[i])
		c0 := gs + gp
		c1 := gs - gp
		c2 := -c1
		c3 := -c0

		var m0, m1 int32
		if i >= pro {
			a0, a1, a2, a3 := int32(curA[0]), int32(curA[1]), int32(curA[2]), int32(curA[3])
			a4, a5, a6, a7 := int32(curA[4]), int32(curA[5]), int32(curA[6]), int32(curA[7])

			m0 = a0 + c0 + b0
			m0 = max(m0, a1+c1+b2)
			m0 = max(m0, a2+c1+b5)
			m0 = max(m0, a3+c0+b7)
			m0 = max(m0, a4+c0+b1)
			m0 = max(m0, a5+c1+b3)
			m0 = max(m0, a6+c1+b4)
			m0 = max(m0, a7+c0+b6)

			m1 = a0 + c3 + b1
			m1 = max(m1, a1+c2+b3)
			m1 = max(m1, a2+c2+b4)
			m1 = max(m1, a3+c3+b6)
			m1 = max(m1, a4+c3+b0)
			m1 = max(m1, a5+c2+b2)
			m1 = max(m1, a6+c2+b5)
			m1 = max(m1, a7+c3+b7)
		} else {
			// Epilogue: some alpha entries are sentinels; skip their
			// branches, table-driven (cold path: at most 3 steps).
			bv := [numStates]int32{b0, b1, b2, b3, b4, b5, b6, b7}
			c := [4]int32{c0, c1, c2, c3}
			m0, m1 = qSentI32, qSentI32
			for s := 0; s < numStates; s++ {
				if curA[s] == qSent {
					continue
				}
				a := int32(curA[s])
				if v := a + c[parityBit[s][0]] + bv[nextState[s][0]]; v > m0 {
					m0 = v
				}
				if v := a + c[2+int(parityBit[s][1])] + bv[nextState[s][1]]; v > m1 {
					m1 = v
				}
			}
		}

		// Doubled metrics halve back here; the shift's floor bias on odd
		// differences is half a quantization step, below decision
		// resolution. Clamping to the rail maintains the invariant that
		// feeds the next pass's a-priori.
		if hard != nil {
			hard[i] = byte(uint32(m0-m1) >> 31)
		}
		le[i] = int16(min(max((m0-m1)>>1-gs, -modulation.LLRQMax), modulation.LLRQMax))

		n0 := max(b0+c0, b1+c3)
		n1 := max(b2+c1, b3+c2)
		n2 := max(b5+c1, b4+c2)
		n3 := max(b7+c0, b6+c3)
		n4 := max(b1+c0, b0+c3)
		n5 := max(b3+c1, b2+c2)
		n6 := max(b4+c1, b5+c2)
		n7 := max(b6+c0, b7+c3)
		b0, b1, b2, b3 = n0, n1, n2, n3
		b4, b5, b6, b7 = n4, n5, n6, n7
	}
}
