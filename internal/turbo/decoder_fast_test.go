package turbo

import (
	"testing"

	"rtopex/internal/stats"
)

// The float64 max-log-MAP decoder below is the oracle the int16 production
// path is tested against: straightforward table-driven recursions with
// explicit reachability guards and a separate normalize sweep, allocating as
// it goes. It lives in the test package only — production code has one
// decoder.

const negInf = -1e30

// oracleDecode mirrors Decoder.decodeQuant half-iteration for half-iteration
// in float64: same check after every constituent pass, no raw precheck.
func oracleDecode(k, maxIter int, s0, s1, s2 []float64, check func([]byte) bool) Result {
	il, err := NewInterleaver(k)
	if err != nil {
		panic(err)
	}
	sys, par1, par2 := s0[:k], s1[:k], s2[:k]
	x1, z1, x2, z2 := demuxTails(s0, s1, s2, k)
	sysI := il.PermuteF(sys, nil)
	la := make([]float64, k)
	le1 := make([]float64, k)
	le := make([]float64, k)
	hard := make([]byte, k)
	// The a-posteriori after either pass is sys + la + le1, with la the
	// freshest deinterleaved extrinsic of decoder 2 (zero before the first
	// iteration).
	hardDecide := func() []byte {
		for i := range hard {
			hard[i] = 0
			if sys[i]+la[i]+le1[i] < 0 {
				hard[i] = 1
			}
		}
		return hard
	}

	res := Result{Bits: hard}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		referenceConstituent(sys, par1, la, x1, z1, le1)
		if check != nil && check(hardDecide()) {
			res.OK = true
			return res
		}
		referenceConstituent(sysI, par2, il.PermuteF(le1, nil), x2, z2, le)
		il.InverseF(le, la)
		if check != nil && check(hardDecide()) {
			res.OK = true
			return res
		}
	}
	if check == nil {
		hardDecide()
		res.OK = true
	}
	return res
}

// demuxTails splits the last four entries of the three soft streams back
// into per-encoder tail LLRs, inverting the multiplexing in encodeWith.
func demuxTails(s0, s1, s2 []float64, k int) (x1, z1, x2, z2 [3]float64) {
	x1 = [3]float64{s0[k], s2[k], s1[k+1]}
	z1 = [3]float64{s1[k], s0[k+1], s2[k+1]}
	x2 = [3]float64{s0[k+2], s2[k+2], s1[k+3]}
	z2 = [3]float64{s1[k+2], s0[k+3], s2[k+3]}
	return
}

// branchMetric evaluates ½·u_sym·(lsys+la) + ½·z_sym·lpar where gs and gp
// already carry the ½·LLR factors and u_sym, z_sym = ±1 for bits 0/1.
func branchMetric(u int, z byte, gs, gp float64) float64 {
	m := gs
	if u == 1 {
		m = -gs
	}
	if z == 1 {
		m -= gp
	} else {
		m += gp
	}
	return m
}

func normalize(v []float64) {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	if m <= negInf {
		return
	}
	for i := range v {
		if v[i] > negInf {
			v[i] -= m
		}
	}
}

// referenceConstituent runs one max-log-MAP pass: systematic LLRs lsys,
// parity LLRs lpar, a-priori la (all length K), plus 3 termination
// systematic/parity LLRs. It writes the extrinsic output into le.
func referenceConstituent(lsys, lpar, la []float64, xTail, zTail [3]float64, le []float64) {
	k := len(lsys)
	alpha := make([]float64, (k+1)*numStates)
	beta := make([]float64, (k+1)*numStates)
	gamma0 := make([]float64, k)
	gamma1 := make([]float64, k)

	for i := 0; i < k; i++ {
		gamma0[i] = 0.5 * (lsys[i] + la[i])
		gamma1[i] = 0.5 * lpar[i]
	}

	alpha[0] = 0
	for s := 1; s < numStates; s++ {
		alpha[s] = negInf
	}
	for i := 0; i < k; i++ {
		cur := alpha[i*numStates : (i+1)*numStates]
		next := alpha[(i+1)*numStates : (i+2)*numStates]
		for s := range next {
			next[s] = negInf
		}
		gs, gp := gamma0[i], gamma1[i]
		for s := 0; s < numStates; s++ {
			as := cur[s]
			if as <= negInf {
				continue
			}
			for u := 0; u <= 1; u++ {
				m := as + branchMetric(u, parityBit[s][u], gs, gp)
				ns := nextState[s][u]
				if m > next[ns] {
					next[ns] = m
				}
			}
		}
		normalize(next)
	}

	var tb [numStates]float64
	for s := range tb {
		tb[s] = negInf
	}
	tb[0] = 0
	for t := 2; t >= 0; t-- {
		var nb [numStates]float64
		for s := 0; s < numStates; s++ {
			u := feedback[s]
			ns := nextState[s][u]
			if tb[ns] <= negInf {
				nb[s] = negInf
				continue
			}
			gs := 0.5 * xTail[t]
			gp := 0.5 * zTail[t]
			nb[s] = tb[ns] + branchMetric(int(u), parityBit[s][u], gs, gp)
		}
		tb = nb
	}
	bk := beta[k*numStates : (k+1)*numStates]
	copy(bk, tb[:])

	for i := k - 1; i >= 0; i-- {
		nextB := beta[(i+1)*numStates : (i+2)*numStates]
		curB := beta[i*numStates : (i+1)*numStates]
		gs, gp := gamma0[i], gamma1[i]
		for s := 0; s < numStates; s++ {
			best := negInf
			for u := 0; u <= 1; u++ {
				ns := nextState[s][u]
				if nextB[ns] <= negInf {
					continue
				}
				m := nextB[ns] + branchMetric(u, parityBit[s][u], gs, gp)
				if m > best {
					best = m
				}
			}
			curB[s] = best
		}
		normalize(curB)
	}

	for i := 0; i < k; i++ {
		curA := alpha[i*numStates : (i+1)*numStates]
		nextB := beta[(i+1)*numStates : (i+2)*numStates]
		gs, gp := gamma0[i], gamma1[i]
		m0, m1 := negInf, negInf
		for s := 0; s < numStates; s++ {
			as := curA[s]
			if as <= negInf {
				continue
			}
			if b := nextB[nextState[s][0]]; b > negInf {
				if m := as + branchMetric(0, parityBit[s][0], gs, gp) + b; m > m0 {
					m0 = m
				}
			}
			if b := nextB[nextState[s][1]]; b > negInf {
				if m := as + branchMetric(1, parityBit[s][1], gs, gp) + b; m > m1 {
					m1 = m
				}
			}
		}
		llr := m0 - m1
		le[i] = llr - lsys[i] - la[i]
	}
}

// TestConstituentWiring checks the hardcoded butterfly wiring in constituentQ
// against the canonical trellis tables: every (state, input) branch must land
// where nextState says with the parity parityBit says. The expected wiring
// below is exactly what quant.go's unrolled recursions encode (metric index =
// u·2 + z).
func TestConstituentWiring(t *testing.T) {
	// forward[ns] lists the two incoming (prevState, u) branches in the
	// order the unrolled code evaluates them.
	forward := [numStates][2][2]int{
		{{0, 0}, {4, 1}}, {{0, 1}, {4, 0}}, {{1, 0}, {5, 1}}, {{1, 1}, {5, 0}},
		{{2, 1}, {6, 0}}, {{2, 0}, {6, 1}}, {{3, 1}, {7, 0}}, {{3, 0}, {7, 1}},
	}
	// metricIdx[ns] gives the c-index (u·2+z) for each incoming branch.
	metricIdx := [numStates][2]int{
		{0, 3}, {3, 0}, {1, 2}, {2, 1}, {2, 1}, {1, 2}, {3, 0}, {0, 3},
	}
	for ns := 0; ns < numStates; ns++ {
		for b := 0; b < 2; b++ {
			s, u := forward[ns][b][0], forward[ns][b][1]
			if nextState[s][u] != ns {
				t.Errorf("forward wiring: (%d,u=%d) -> %d, want %d", s, u, nextState[s][u], ns)
			}
			z := int(parityBit[s][u])
			if got := u*2 + z; got != metricIdx[ns][b] {
				t.Errorf("forward metric: (%d,u=%d) has index %d, hardcoded %d", s, u, got, metricIdx[ns][b])
			}
		}
	}
	// Backward and LLR wiring reuse nextState/parityBit directly per source
	// state; verify the (ns, metric) pairs the unrolled code hardcodes.
	backward := [numStates][2][2]int{ // [s][u] = {nextState, metricIdx}
		{{0, 0}, {1, 3}}, {{2, 1}, {3, 2}}, {{5, 1}, {4, 2}}, {{7, 0}, {6, 3}},
		{{1, 0}, {0, 3}}, {{3, 1}, {2, 2}}, {{4, 1}, {5, 2}}, {{6, 0}, {7, 3}},
	}
	for s := 0; s < numStates; s++ {
		for u := 0; u < 2; u++ {
			wantNS := nextState[s][u]
			wantIdx := u*2 + int(parityBit[s][u])
			if backward[s][u][0] != wantNS || backward[s][u][1] != wantIdx {
				t.Errorf("backward wiring: (%d,u=%d) hardcoded (%d,%d), want (%d,%d)",
					s, u, backward[s][u][0], backward[s][u][1], wantNS, wantIdx)
			}
		}
	}
}

// randLLRs mixes magnitudes: mostly moderate values, some zeros (punctured
// positions) and some huge ones (saturated demapper output at high SNR).
func randLLRs(r *stats.RNG, k, trial int) []float64 {
	out := make([]float64, k)
	for i := range out {
		switch {
		case i%17 == trial:
			out[i] = 0
		case i%31 == trial:
			out[i] = (r.Float64() - 0.5) * 2e6
		default:
			out[i] = (r.Float64() - 0.5) * 200
		}
	}
	return out
}

// TestDecodeAllocFree: steady-state Decode must not allocate.
func TestDecodeAllocFree(t *testing.T) {
	const k = 1056
	d, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(7)
	s0 := randLLRs(r, k+4, 0)
	s1 := randLLRs(r, k+4, 1)
	s2 := randLLRs(r, k+4, 2)
	d.Decode(s0, s1, s2, nil) // warm up
	allocs := testing.AllocsPerRun(5, func() {
		d.Decode(s0, s1, s2, nil)
	})
	if allocs != 0 {
		t.Fatalf("Decode allocates %.1f objects per call, want 0", allocs)
	}
}
