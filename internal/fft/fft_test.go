package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"rtopex/internal/stats"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}

func randSignal(r *stats.RNG, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestNewPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted", n)
		}
	}
}

func TestMustPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPlan(3) did not panic")
		}
	}()
	MustPlan(3)
}

func TestForwardMatchesNaive(t *testing.T) {
	r := stats.NewRNG(1)
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randSignal(r, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		MustPlan(n).Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := stats.NewRNG(2)
	for _, n := range []int{2, 16, 1024, 2048} {
		p := MustPlan(n)
		x := randSignal(r, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErr(x, y); e > 1e-9 {
			t.Errorf("n=%d: round-trip error %v", n, e)
		}
	}
}

func TestParseval(t *testing.T) {
	r := stats.NewRNG(3)
	n := 1024
	x := randSignal(r, n)
	var et float64
	for _, v := range x {
		et += real(v)*real(v) + imag(v)*imag(v)
	}
	y := append([]complex128(nil), x...)
	MustPlan(n).Forward(y)
	var ef float64
	for _, v := range y {
		ef += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(ef/float64(n)-et) > 1e-6*et {
		t.Fatalf("Parseval violated: time %v, freq/N %v", et, ef/float64(n))
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	n := 64
	x := make([]complex128, n)
	x[0] = 1
	MustPlan(n).Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse DFT bin %d = %v", i, v)
		}
	}
}

func TestSingleToneBin(t *testing.T) {
	// A complex exponential at bin k concentrates all energy there.
	n, k := 128, 17
	x := make([]complex128, n)
	for j := range x {
		ang := 2 * math.Pi * float64(k) * float64(j) / float64(n)
		x[j] = complex(math.Cos(ang), math.Sin(ang))
	}
	MustPlan(n).Forward(x)
	for j, v := range x {
		want := complex128(0)
		if j == k {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-8 {
			t.Fatalf("bin %d = %v, want %v", j, v, want)
		}
	}
}

func TestForwardPanicsOnWrongLength(t *testing.T) {
	p := MustPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestBluesteinMatchesNaive(t *testing.T) {
	r := stats.NewRNG(4)
	// 600 = 12·50 PRBs is the size the SC-FDMA precoder actually uses;
	// include primes and other non-powers too.
	for _, n := range []int{3, 5, 7, 12, 60, 300, 600, 97} {
		x := randSignal(r, n)
		want := naiveDFT(x)
		got := DFT(x)
		if e := maxErr(got, want); e > 1e-7*float64(n) {
			t.Errorf("bluestein n=%d: max error %v", n, e)
		}
	}
}

func TestDFTPowerOfTwoAgreesWithPlan(t *testing.T) {
	r := stats.NewRNG(5)
	x := randSignal(r, 256)
	a := DFT(x)
	b := append([]complex128(nil), x...)
	MustPlan(256).Forward(b)
	if e := maxErr(a, b); e > 1e-12 {
		t.Fatalf("DFT dispatch mismatch: %v", e)
	}
}

func TestIDFTRoundTripArbitrarySize(t *testing.T) {
	r := stats.NewRNG(6)
	for _, n := range []int{1, 5, 600, 1024} {
		x := randSignal(r, n)
		y := make([]complex128, n)
		IDFTInto(y, DFT(x), make([]complex128, WorkLen(n)))
		if e := maxErr(x, y); e > 1e-8 {
			t.Errorf("n=%d: IDFT(DFT) error %v", n, e)
		}
	}
}

func TestDFTEmpty(t *testing.T) {
	if DFT(nil) != nil {
		t.Fatal("empty transform should return nil")
	}
	IDFTInto(nil, nil, nil) // must not panic
}

func TestDFTDoesNotMutateInput(t *testing.T) {
	r := stats.NewRNG(7)
	x := randSignal(r, 600)
	orig := append([]complex128(nil), x...)
	_ = DFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("DFT mutated its input")
		}
	}
}

func TestDFTLinearity(t *testing.T) {
	r := stats.NewRNG(8)
	n := 600
	x, y := randSignal(r, n), randSignal(r, n)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = x[i] + 2i*y[i]
	}
	want := make([]complex128, n)
	fx, fy := DFT(x), DFT(y)
	for i := range want {
		want[i] = fx[i] + 2i*fy[i]
	}
	if e := maxErr(DFT(sum), want); e > 1e-7 {
		t.Fatalf("linearity violated: %v", e)
	}
}

// TestCacheConcurrency hammers the lock-free plan caches (run under -race in
// CI): steady-state hits on the chain's sizes, plus goroutines released
// together onto sizes no other test uses, so the first-use publish itself
// races. Every goroutine must end up with the one published plan per size.
func TestCacheConcurrency(t *testing.T) {
	const workers = 8
	fresh := []int{1 << 13, 1350, 1201} // radix-2, 5-smooth, Bluestein
	start := make(chan struct{})
	got := make(chan [3]any, workers)
	for g := 0; g < workers; g++ {
		go func(seed uint64) {
			r := stats.NewRNG(seed)
			<-start
			for _, n := range fresh {
				_ = DFT(randSignal(r, n))
			}
			for i := 0; i < 20; i++ {
				_ = DFT(randSignal(r, 600))
				_ = DFT(randSignal(r, 1024))
			}
			got <- [3]any{MustPlan(fresh[0]), smooths.get(fresh[1], newSmoothPlan), bluesteins.get(fresh[2], newBluestein)}
		}(uint64(g))
	}
	close(start)
	first := <-got
	for g := 1; g < workers; g++ {
		if next := <-got; next != first {
			t.Fatalf("goroutines hold different plans for one size: %v vs %v", next, first)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	r := stats.NewRNG(9)
	p := MustPlan(1024)
	x := randSignal(r, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT2048(b *testing.B) {
	r := stats.NewRNG(10)
	p := MustPlan(2048)
	x := randSignal(r, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkBluestein600(b *testing.B) {
	r := stats.NewRNG(11)
	x := randSignal(r, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DFT(x)
	}
}

func TestDFTShiftTheoremProperty(t *testing.T) {
	// Circular time shift multiplies bin k by e^{-2πi·k·s/N} — checked via
	// magnitude invariance across random shifts and sizes.
	r := stats.NewRNG(30)
	f := func(raw uint16) bool {
		sizes := []int{12, 60, 64, 600}
		n := sizes[int(raw)%len(sizes)]
		shift := 1 + int(raw/7)%(n-1)
		x := randSignal(r, n)
		shifted := make([]complex128, n)
		for i := range x {
			shifted[i] = x[(i+shift)%n]
		}
		a, b := DFT(x), DFT(shifted)
		for k := range a {
			if math.Abs(cmplx.Abs(a[k])-cmplx.Abs(b[k])) > 1e-6*(1+cmplx.Abs(a[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIntoVariantsAllocFree(t *testing.T) {
	r := stats.NewRNG(32)
	for _, n := range []int{512, 600} {
		x := randSignal(r, n)
		dst := make([]complex128, n)
		work := make([]complex128, WorkLen(n))
		IDFTInto(dst, x, work) // warm the kernel caches
		allocs := testing.AllocsPerRun(5, func() {
			DFTInto(dst, x, work)
			IDFTInto(dst, x, work)
		})
		if allocs != 0 {
			t.Fatalf("n=%d: Into transforms allocate %.1f objects per call, want 0", n, allocs)
		}
	}
}

func TestIntoVariantsPanicOnBadLengths(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	x := make([]complex128, 600)
	expectPanic("short dst", func() { DFTInto(make([]complex128, 10), x, make([]complex128, WorkLen(600))) })
	expectPanic("short work", func() { DFTInto(make([]complex128, 600), x, nil) })
	expectPanic("short dst idft", func() { IDFTInto(make([]complex128, 10), x, make([]complex128, WorkLen(600))) })
}
