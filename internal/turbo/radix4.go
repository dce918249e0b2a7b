package turbo

import "rtopex/internal/modulation"

// radix4Enabled gates dispatch to the kernel stepper, which runs the forward
// and backward recursions as two interleaved chains on the AVX2 kernels in
// quant_avx2_amd64.s, with renormalization kept per stage so the arithmetic —
// and therefore every output bit — matches the scalar stepper constituentQ
// exactly (TestRadix4DifferentialGrid). Which one runs is decided by what the
// code can observe: radix4HW, the CPUID probe. On hardware without AVX2 every
// pass decodes through the scalar stepper; outputs are identical either way,
// only the stepping speed differs. Tests clear the variable to cover the
// scalar stepper on AVX2 hardware.
var radix4Enabled = radix4HW

// constituentQR4 is the constituent pass the iteration pipeline calls:
// identical contract to constituentQ, stepped on the AVX2 kernels when they
// are available, and through constituentQ itself when not. The guarded edges
// (3-step forward prologue, termination tail, 3-step LLR epilogue) stay
// scalar — they are cold and carry the sentinel logic — while the guard-free
// interior runs vectorized in two phases that meet at mid = K/2: inwardAVX2
// steps α from the prologue to mid beside β from the tail seed down to mid,
// storing the β half; outwardAVX2 then steps α from mid to K, taking LLRs
// from the stored β, beside the fused β/LLR recursion from mid down to the
// epilogue. The forward chain is latency-bound, so the second chain beside
// it runs nearly free. Both read each stage's metric halves as one
// interleaved pair (gs = lsys+la, gp = lpar), which interleaveAVX2 writes
// into d.qg first.
func (d *Decoder) constituentQR4(lsys, lpar, la []int16, xTail, zTail [3]int16, le []int16, hard []byte) {
	k := d.K
	if !radix4Enabled || k <= numStates {
		d.constituentQ(lsys, lpar, la, xTail, zTail, le, hard)
		return
	}
	alpha, g := d.qalpha, d.qg
	var lap *int16 // nil on the first decoder-1 pass: the a-priori is zero
	if la != nil {
		lap = &la[0]
	}
	interleaveAVX2(&g[0], &lsys[0], lap, &lpar[0], k)

	// k > numStates ⇒ the full 3-step prologue runs, and both halves of the
	// interior are longer than it.
	const pro = 3
	var g0, g1 [pro]int16
	for i := range g0 {
		g0[i], g1[i] = g[2*i], g[2*i+1]
	}
	av := forwardPrologueQ(alpha, g0[:], g1[:], k)
	tb := tailBetaQ(xTail, zTail)
	hardp := hard
	if hardp == nil {
		hardp = d.qhardTmp
	}
	mid := k / 2
	inwardAVX2(&alpha[0], &d.qbeta[0], &g[0], k, mid, &av, &tb)
	outwardAVX2(&alpha[0], &d.qbeta[0], &g[0], &le[0], &hardp[0], k, mid, &av, &tb)

	// Scalar LLR epilogue over the guarded rows (i < pro), continuing the
	// beta recursion left in tb by the kernel. Mirrors constituentQ's
	// epilogue branch exactly.
	for i := pro - 1; i >= 0; i-- {
		curA := (*[numStates]int16)(alpha[i*numStates:])
		gs, gp := int32(g0[i]), int32(g1[i])
		c := [4]int32{gs + gp, gs - gp, -gs + gp, -gs - gp}
		m0, m1 := int32(qSentI32), int32(qSentI32)
		for s := 0; s < numStates; s++ {
			if curA[s] == qSent {
				continue
			}
			a := int32(curA[s])
			if v := a + c[parityBit[s][0]] + tb[nextState[s][0]]; v > m0 {
				m0 = v
			}
			if v := a + c[2+int(parityBit[s][1])] + tb[nextState[s][1]]; v > m1 {
				m1 = v
			}
		}
		hardp[i] = byte(uint32(m0-m1) >> 31)
		le[i] = int16(min(max((m0-m1)>>1-gs, -modulation.LLRQMax), modulation.LLRQMax))

		n0 := max(tb[0]+c[0], tb[1]+c[3])
		n1 := max(tb[2]+c[1], tb[3]+c[2])
		n2 := max(tb[5]+c[1], tb[4]+c[2])
		n3 := max(tb[7]+c[0], tb[6]+c[3])
		n4 := max(tb[1]+c[0], tb[0]+c[3])
		n5 := max(tb[3]+c[1], tb[2]+c[2])
		n6 := max(tb[4]+c[1], tb[5]+c[2])
		n7 := max(tb[6]+c[0], tb[7]+c[3])
		tb = [numStates]int32{n0, n1, n2, n3, n4, n5, n6, n7}
	}
}

// forwardPrologueQ runs the guarded 3-step forward prologue from state 0,
// storing int16 rows 1..3 and returning the int32 state vector after the
// last guarded step. Shared by the scalar and kernel steppers.
func forwardPrologueQ(alpha, qg0, qg1 []int16, k int) [numStates]int32 {
	var av [numStates]int32
	av[0] = 0
	alpha[0] = 0
	for s := 1; s < numStates; s++ {
		av[s] = qSentI32
		alpha[s] = qSent
	}
	pro := 3
	if k < pro {
		pro = k
	}
	for i := 0; i < pro; i++ {
		gs, gp := int32(qg0[i]), int32(qg1[i])
		c := [4]int32{gs + gp, gs - gp, -gs + gp, -gs - gp} // indexed 2u+z
		var nv [numStates]int32
		for s := range nv {
			nv[s] = qSentI32
		}
		for s := 0; s < numStates; s++ {
			if av[s] <= qSentI32 {
				continue
			}
			for u := byte(0); u < 2; u++ {
				ns := nextState[s][u]
				if v := av[s] + c[2*u+parityBit[s][u]]; v > nv[ns] {
					nv[ns] = v
				}
			}
		}
		m := nv[0]
		for s := 1; s < numStates; s++ {
			m = max(m, nv[s])
		}
		next := (*[numStates]int16)(alpha[(i+1)*numStates:])
		for s := 0; s < numStates; s++ {
			if nv[s] <= qSentI32 {
				av[s] = qSentI32
				next[s] = qSent
			} else {
				av[s] = max(nv[s]-m, qFloor)
				next[s] = int16(av[s])
			}
		}
	}
	return av
}

// tailBetaQ seeds the backward recursion through the three forced
// termination steps from state 0 at virtual step K+3. Doubled metrics,
// guarded; shared by the scalar and kernel steppers.
func tailBetaQ(xTail, zTail [3]int16) [numStates]int32 {
	var tb [numStates]int32
	for s := range tb {
		tb[s] = qSentI32
	}
	tb[0] = 0
	for t := 2; t >= 0; t-- {
		gs, gp := int32(xTail[t]), int32(zTail[t])
		var nb [numStates]int32
		for s := 0; s < numStates; s++ {
			u := feedback[s]
			ns := nextState[s][u]
			if tb[ns] <= qSentI32 {
				nb[s] = qSentI32
				continue
			}
			m := gs
			if u == 1 {
				m = -gs
			}
			if parityBit[s][u] == 1 {
				m -= gp
			} else {
				m += gp
			}
			nb[s] = tb[ns] + m
		}
		tb = nb
	}
	return tb
}
