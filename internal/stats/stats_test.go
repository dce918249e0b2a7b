package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGZeroSeedIsUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d has %d draws, want about %d", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	w := Welford{}
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", w.Mean())
	}
	if math.Abs(w.Std()-1) > 0.02 {
		t.Fatalf("normal std = %v, want ~1", w.Std())
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	w := Welford{}
	for i := 0; i < 200000; i++ {
		w.Add(r.ExpFloat64())
	}
	if math.Abs(w.Mean()-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", w.Mean())
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(15)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.LogNormal(1.5, 0.7)
	}
	med := Quantile(xs, 0.5)
	if math.Abs(med-math.Exp(1.5)) > 0.15*math.Exp(1.5) {
		t.Fatalf("lognormal median = %v, want ~%v", med, math.Exp(1.5))
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRNG(17)
	const xm, alpha = 2.0, 1.5
	exceed := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		x := r.Pareto(xm, alpha)
		if x < xm {
			t.Fatalf("Pareto sample %v below scale %v", x, xm)
		}
		if x > 10 {
			exceed++
		}
	}
	// P(X > 10) = (xm/10)^alpha.
	want := math.Pow(xm/10, alpha)
	got := float64(exceed) / draws
	if got < want/2 || got > want*2 {
		t.Fatalf("Pareto tail P(X>10) = %v, want ~%v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
	// Input must not be reordered.
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("median of {0,10} = %v, want 5", q)
	}
	if q := Quantile(xs, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantileRoundTrip(t *testing.T) {
	r := NewRNG(23)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	c := NewCDF(xs)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		x := c.Quantile(q)
		if p := c.At(x); math.Abs(p-q) > 0.01 {
			t.Errorf("At(Quantile(%v)) = %v", q, p)
		}
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	r := NewRNG(29)
	xs := make([]float64, 5000)
	w := Welford{}
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	s := Summarize(xs)
	if math.Abs(w.Mean()-s.Mean) > 1e-9 {
		t.Fatalf("Welford mean %v vs Summarize %v", w.Mean(), s.Mean)
	}
	if math.Abs(w.Std()-s.Std) > 1e-9 {
		t.Fatalf("Welford std %v vs Summarize %v", w.Std(), s.Std)
	}
	if w.Max() != s.Max {
		t.Fatal("Welford max mismatch")
	}
}

func TestOLSRecoversKnownCoefficients(t *testing.T) {
	r := NewRNG(31)
	const n = 4000
	// y = 31.4 + 169.1*a + 49.7*b + 93.0*c + noise — the paper's Table 1 shape.
	truth := []float64{31.4, 169.1, 49.7, 93.0}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := float64(r.Intn(4) + 1)
		b := float64(2 * (r.Intn(3) + 1))
		c := r.Float64() * 15
		x[i] = []float64{1, a, b, c}
		y[i] = truth[0] + truth[1]*a + truth[2]*b + truth[3]*c + r.NormFloat64()*5
	}
	beta, r2, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(beta[i]-truth[i]) > 2 {
			t.Fatalf("beta[%d] = %v, want ~%v", i, beta[i], truth[i])
		}
	}
	if r2 < 0.99 {
		t.Fatalf("r² = %v, want >= 0.99", r2)
	}
}

func TestOLSExactFit(t *testing.T) {
	// Noise-free data must give r² == 1 and exact coefficients.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11} // y = 2 + 3x
	beta, r2, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-9 || math.Abs(beta[1]-3) > 1e-9 {
		t.Fatalf("beta = %v", beta)
	}
	if math.Abs(r2-1) > 1e-12 {
		t.Fatalf("r² = %v", r2)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, _, err := OLS(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := OLS([][]float64{{1, 2}}, []float64{3}); err == nil {
		t.Error("underdetermined system accepted")
	}
	// Collinear columns: x2 = 2*x1.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, _, err := OLS(x, y); err == nil {
		t.Error("singular design matrix accepted")
	}
	// Ragged row.
	if _, _, err := OLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged X accepted")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matched parent %d/1000 times", same)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
