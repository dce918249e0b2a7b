package modulation

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"rtopex/internal/stats"
)

func allSchemes() []Scheme { return []Scheme{QPSK, QAM16, QAM64} }

// demap is DemapInto into a fresh buffer.
func demap(scheme Scheme, symbols []complex128, n0 float64) []float64 {
	out := make([]float64, len(symbols)*scheme.Order())
	DemapInto(out, scheme, symbols, n0)
	return out
}

func TestSchemeBasics(t *testing.T) {
	if QPSK.Order() != 2 || QAM16.Order() != 4 || QAM64.Order() != 6 {
		t.Fatal("orders wrong")
	}
	if !QPSK.Valid() || Scheme(3).Valid() {
		t.Fatal("validity wrong")
	}
	if QPSK.String() != "QPSK" || QAM16.String() != "16QAM" || QAM64.String() != "64QAM" {
		t.Fatal("names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unknown scheme name wrong")
	}
}

func TestUnitAverageEnergy(t *testing.T) {
	r := stats.NewRNG(1)
	for _, s := range allSchemes() {
		n := s.Order() * 4096
		bitsIn := make([]byte, n)
		for i := range bitsIn {
			bitsIn[i] = byte(r.Intn(2))
		}
		syms := Map(s, bitsIn)
		var e float64
		for _, x := range syms {
			e += real(x)*real(x) + imag(x)*imag(x)
		}
		e /= float64(len(syms))
		if math.Abs(e-1) > 0.05 {
			t.Errorf("%v average energy = %v, want ~1", s, e)
		}
	}
}

func TestConstellationSize(t *testing.T) {
	for _, s := range allSchemes() {
		k := s.Order()
		seen := map[complex128]bool{}
		// Enumerate all bit patterns of one symbol.
		for pat := 0; pat < 1<<uint(k); pat++ {
			bitsIn := make([]byte, k)
			for i := 0; i < k; i++ {
				bitsIn[i] = byte((pat >> uint(k-1-i)) & 1)
			}
			sym := Map(s, bitsIn)[0]
			if seen[sym] {
				t.Fatalf("%v: duplicate constellation point for pattern %b", s, pat)
			}
			seen[sym] = true
		}
		if len(seen) != 1<<uint(k) {
			t.Fatalf("%v: %d distinct points, want %d", s, len(seen), 1<<uint(k))
		}
	}
}

func TestGrayMappingNeighbors(t *testing.T) {
	// In a Gray mapping, constellation points at minimum distance differ in
	// exactly one bit. Verify for 16-QAM by scanning all pairs.
	s := QAM16
	k := s.Order()
	type pt struct {
		sym complex128
		pat int
	}
	var pts []pt
	for pat := 0; pat < 1<<uint(k); pat++ {
		bitsIn := make([]byte, k)
		for i := 0; i < k; i++ {
			bitsIn[i] = byte((pat >> uint(k-1-i)) & 1)
		}
		pts = append(pts, pt{Map(s, bitsIn)[0], pat})
	}
	minD := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := cmplx.Abs(pts[i].sym - pts[j].sym); d < minD {
				minD = d
			}
		}
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := cmplx.Abs(pts[i].sym - pts[j].sym)
			if d < minD*1.001 {
				if popcount(pts[i].pat^pts[j].pat) != 1 {
					t.Fatalf("nearest neighbors %04b and %04b differ in >1 bit",
						pts[i].pat, pts[j].pat)
				}
			}
		}
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

func TestMapDemapRoundTripNoiseless(t *testing.T) {
	r := stats.NewRNG(2)
	for _, s := range allSchemes() {
		n := s.Order() * 1000
		bitsIn := make([]byte, n)
		for i := range bitsIn {
			bitsIn[i] = byte(r.Intn(2))
		}
		llrs := demap(s, Map(s, bitsIn), 0.01)
		got := HardDecision(llrs)
		for i := range bitsIn {
			if got[i] != bitsIn[i] {
				t.Fatalf("%v: bit %d flipped without noise", s, i)
			}
		}
	}
}

func TestDemapUnderModerateNoise(t *testing.T) {
	// At 15 dB SNR even 64-QAM should have a low (but nonzero) raw BER.
	r := stats.NewRNG(3)
	const snrDB = 15.0
	n0 := math.Pow(10, -snrDB/10)
	sigma := math.Sqrt(n0 / 2)
	for _, s := range allSchemes() {
		n := s.Order() * 20000
		bitsIn := make([]byte, n)
		for i := range bitsIn {
			bitsIn[i] = byte(r.Intn(2))
		}
		syms := Map(s, bitsIn)
		for i := range syms {
			syms[i] += complex(sigma*r.NormFloat64(), sigma*r.NormFloat64())
		}
		errs := 0
		for i, b := range HardDecision(demap(s, syms, n0)) {
			if b != bitsIn[i] {
				errs++
			}
		}
		ber := float64(errs) / float64(n)
		limit := map[Scheme]float64{QPSK: 1e-4, QAM16: 5e-3, QAM64: 8e-2}[s]
		if ber > limit {
			t.Errorf("%v BER at 15 dB = %v, want < %v", s, ber, limit)
		}
	}
}

func TestLLRMagnitudeScalesWithSNR(t *testing.T) {
	bitsIn := []byte{0, 1}
	sym := Map(QPSK, bitsIn)
	loud := demap(QPSK, sym, 0.01)
	quiet := demap(QPSK, sym, 1.0)
	if math.Abs(loud[0]) <= math.Abs(quiet[0]) {
		t.Fatal("LLR confidence did not grow with SNR")
	}
}

// TestDemapZeroNoiseGuard: a noise power that is not positive — zero,
// negative or NaN — is clamped, so the LLRs of finite symbols stay finite.
func TestDemapZeroNoiseGuard(t *testing.T) {
	syms := []complex128{complex(0.7, -0.7), complex(-0.1, 0.3), 0}
	for _, s := range allSchemes() {
		for _, n0 := range []float64{0, math.Copysign(0, -1), -1, math.NaN()} {
			for i, l := range demap(s, syms, n0) {
				if math.IsNaN(l) || math.IsInf(l, 0) {
					t.Fatalf("%v n0=%v: non-finite LLR[%d] = %v", s, n0, i, l)
				}
			}
		}
	}
}

func TestMapPanicsOnBadInput(t *testing.T) {
	mustPanic(t, func() { Map(QPSK, []byte{1}) })
	mustPanic(t, func() { Map(Scheme(5), []byte{1, 0}) })
	mustPanic(t, func() { demap(Scheme(5), []complex128{0}, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestHardDecision(t *testing.T) {
	got := HardDecision([]float64{1.5, -0.1, 0, -9})
	want := []byte{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HardDecision[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := stats.NewRNG(4)
	f := func(raw []byte, schemeSel uint8) bool {
		s := allSchemes()[int(schemeSel)%3]
		n := (len(raw)/s.Order() + 1) * s.Order()
		bitsIn := make([]byte, n)
		for i := range bitsIn {
			bitsIn[i] = byte(r.Intn(2))
		}
		got := HardDecision(demap(s, Map(s, bitsIn), 0.001))
		for i := range bitsIn {
			if got[i] != bitsIn[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMap64QAM(b *testing.B) {
	r := stats.NewRNG(5)
	bitsIn := make([]byte, 6*7200) // one 50-PRB subframe of 64-QAM REs
	for i := range bitsIn {
		bitsIn[i] = byte(r.Intn(2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Map(QAM64, bitsIn)
	}
}

func TestDemapIntoAllocFreeAndChecksLength(t *testing.T) {
	syms := make([]complex128, 50)
	dst := make([]float64, 50*QAM64.Order())
	allocs := testing.AllocsPerRun(5, func() { DemapInto(dst, QAM64, syms, 0.1) })
	if allocs != 0 {
		t.Fatalf("DemapInto allocates %.1f objects per call, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	DemapInto(dst[:10], QAM64, syms, 0.1)
}
