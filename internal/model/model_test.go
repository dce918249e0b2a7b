package model

import (
	"math"
	"testing"

	"rtopex/internal/lte"
	"rtopex/internal/stats"
)

func TestPredictPaperAnchors(t *testing.T) {
	p := PaperGPP
	// "each additional antenna adds 169µs" (§2.1).
	if d := p.Predict(3, 6, 1, 1) - p.Predict(2, 6, 1, 1); math.Abs(d-169.1) > 1e-9 {
		t.Fatalf("antenna increment %v", d)
	}
	// "each Turbo iteration at MCS 27 adds 345µs": w3·D with D=3.71 ≈ 345.
	d27, _ := lte.SubcarrierLoad(27, lte.BW10MHz)
	inc := p.Predict(2, 6, d27, 3) - p.Predict(2, 6, d27, 2)
	if inc < 340 || inc < 0 || inc > 360 {
		t.Fatalf("per-iteration increment at MCS 27 = %v, want ~345", inc)
	}
	// Fig. 3(a): MCS 0 → 27 at L=2, N=2 goes from ~0.5 ms to ~1.4 ms.
	d0, _ := lte.SubcarrierLoad(0, lte.BW10MHz)
	t0 := p.Predict(2, 2, d0, 2)
	t27 := p.Predict(2, 6, d27, 2)
	if t0 < 400 || t0 > 600 {
		t.Fatalf("MCS 0 time %v, want ~500", t0)
	}
	if t27 < 1300 || t27 > 1500 {
		t.Fatalf("MCS 27 time %v, want ~1400", t27)
	}
	ratio := t27 / t0
	if ratio < 2.5 || ratio > 3.1 {
		t.Fatalf("MCS 0→27 factor %v, want ~2.8", ratio)
	}
}

func TestTasksSumToPredict(t *testing.T) {
	p := PaperGPP
	for _, n := range []int{1, 2, 4} {
		for _, l := range []int{1, 4} {
			d, _ := lte.SubcarrierLoad(21, lte.BW10MHz)
			tt := p.Tasks(n, 6, d, l)
			if math.Abs(tt.FFT+tt.Demod+tt.Decode-p.Predict(n, 6, d, l)) > 1e-9 {
				t.Fatalf("task split does not sum: %v vs %v", tt.FFT+tt.Demod+tt.Decode, p.Predict(n, 6, d, l))
			}
			if tt.FFT <= 0 || tt.Demod <= 0 || tt.Decode <= 0 {
				t.Fatalf("non-positive task time %+v", tt)
			}
		}
	}
}

func TestFFTTaskMatchesFig18(t *testing.T) {
	// Two-antenna FFT task ≈ 108 µs (Fig. 18's local median).
	tt := PaperGPP.Tasks(2, 6, 3.7, 2)
	if math.Abs(tt.FFT-108) > 1 {
		t.Fatalf("FFT task = %v, want 108", tt.FFT)
	}
}

func TestDecodeTaskMagnitude(t *testing.T) {
	// Fig. 4(b): serial decode at high MCS ≈ 980 µs. At MCS 27, D = 3.774:
	// L=3 gives 1053; L∈[2,3] brackets the figure.
	d, _ := lte.SubcarrierLoad(27, lte.BW10MHz)
	lo := PaperGPP.Tasks(2, 6, d, 2).Decode
	hi := PaperGPP.Tasks(2, 6, d, 3).Decode
	if lo > 980 || hi < 980 {
		t.Fatalf("decode task [%v, %v] does not bracket 980", lo, hi)
	}
}

func TestSubtaskAccounting(t *testing.T) {
	if FFTSubtaskCount(2) != 28 {
		t.Fatalf("FFT subtasks = %d", FFTSubtaskCount(2))
	}
}

func TestJitterTailCalibration(t *testing.T) {
	r := stats.NewRNG(1)
	const n = 2_000_000
	over150, over400 := 0, 0
	for i := 0; i < n; i++ {
		e := DefaultJitter.Sample(r)
		if e > 150 {
			over150++
		}
		if e > 400 {
			over400++
		}
	}
	p150 := float64(over150) / n
	p400 := float64(over400) / n
	if p150 < 3e-4 || p150 > 3e-3 {
		t.Fatalf("P(E>150µs) = %v, want ~1e-3", p150)
	}
	if p400 > 1e-4 {
		t.Fatalf("P(E>400µs) = %v, want ~1e-5", p400)
	}
}

func TestJitterBulkIsSmall(t *testing.T) {
	r := stats.NewRNG(2)
	w := stats.Welford{}
	for i := 0; i < 100000; i++ {
		w.Add(DefaultJitter.Sample(r))
	}
	if math.Abs(w.Mean()) > 5 {
		t.Fatalf("jitter mean %v µs, want near 0", w.Mean())
	}
}

func TestNoJitterIsZero(t *testing.T) {
	r := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		if NoJitter.Sample(r) != 0 {
			t.Fatal("NoJitter produced a nonzero sample")
		}
	}
}

func TestIterationLawMonotoneInSNR(t *testing.T) {
	il := DefaultIterationLaw
	if il.RetryProb(27, 10) <= il.RetryProb(27, 30) {
		t.Fatal("retry prob not decreasing in SNR")
	}
	if il.RetryProb(27, 20) <= il.RetryProb(0, 20) {
		t.Fatal("retry prob not increasing in MCS")
	}
}

func TestIterationLawClamps(t *testing.T) {
	il := DefaultIterationLaw
	if q := il.RetryProb(0, 100); q != il.FloorProb {
		t.Fatalf("floor not applied: %v", q)
	}
	if q := il.RetryProb(27, -100); q != il.CeilProb {
		t.Fatalf("ceiling not applied: %v", q)
	}
}

func TestIterationSampleRange(t *testing.T) {
	r := stats.NewRNG(4)
	il := DefaultIterationLaw
	counts := map[int]int{}
	for i := 0; i < 50000; i++ {
		l := il.Sample(r, 27, 30, 4)
		if l < 1 || l > 4 {
			t.Fatalf("L = %d out of [1,4]", l)
		}
		counts[l]++
	}
	// At 30 dB most blocks take 1 iteration but a tail must exist.
	if counts[1] < 30000 {
		t.Fatalf("only %d single-iteration decodes at 30 dB", counts[1])
	}
	if counts[3]+counts[4] == 0 {
		t.Fatal("no high-iteration tail at 30 dB")
	}
	if il.Sample(r, 0, 30, 0) != 1 {
		t.Fatal("lm<1 should clamp to 1")
	}
}

func TestIterationMeanGrowsAsSNRFalls(t *testing.T) {
	r := stats.NewRNG(5)
	il := DefaultIterationLaw
	mean := func(snr float64) float64 {
		s := 0
		for i := 0; i < 20000; i++ {
			s += il.Sample(r, 25, snr, 4)
		}
		return float64(s) / 20000
	}
	m10, m20, m30 := mean(10), mean(20), mean(30)
	if !(m10 > m20 && m20 > m30) {
		t.Fatalf("iteration means not decreasing: %v %v %v", m10, m20, m30)
	}
}

func TestDecodable(t *testing.T) {
	r := stats.NewRNG(6)
	il := DefaultIterationLaw
	// Below Lm always decodable.
	for i := 0; i < 100; i++ {
		if !il.Decodable(r, 27, 0, 4, 3) {
			t.Fatal("got<lm must be decodable")
		}
	}
	// At Lm with terrible SNR, failures must occur.
	fails := 0
	for i := 0; i < 1000; i++ {
		if !il.Decodable(r, 27, 0, 4, 4) {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("no decode failures at 0 dB MCS 27")
	}
}

func TestFitRecoversTable1(t *testing.T) {
	// Generate synthetic measurements from PaperGPP + jitter and refit:
	// the Table 1 procedure must recover the parameters with r² ≈ 0.99.
	r := stats.NewRNG(7)
	il := DefaultIterationLaw
	var obs []Observation
	for i := 0; i < 40000; i++ {
		mcs := r.Intn(28)
		info, _ := lte.MCSTable(mcs)
		d, _ := lte.SubcarrierLoad(mcs, lte.BW10MHz)
		n := 1 + r.Intn(3)
		snr := 30 * r.Float64()
		l := il.Sample(r, mcs, snr, 4)
		tt := PaperGPP.Predict(n, info.Scheme.Order(), d, l) + DefaultJitter.Sample(r)
		obs = append(obs, Observation{N: n, K: info.Scheme.Order(), D: d, L: l, T: tt})
	}
	p, r2, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.W0-PaperGPP.W0) > 5 || math.Abs(p.W1-PaperGPP.W1) > 3 ||
		math.Abs(p.W2-PaperGPP.W2) > 3 || math.Abs(p.W3-PaperGPP.W3) > 3 {
		t.Fatalf("fit %+v far from %+v", p, PaperGPP)
	}
	if r2 < 0.98 {
		t.Fatalf("r² = %v, want ≥ 0.98 (paper: 0.992)", r2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, _, err := Fit(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	// Collinear observations (same N,K,D,L) cannot identify 4 parameters.
	obs := make([]Observation, 10)
	for i := range obs {
		obs[i] = Observation{N: 2, K: 6, D: 1, L: 2, T: 100}
	}
	if _, _, err := Fit(obs); err == nil {
		t.Fatal("degenerate design accepted")
	}
}

func BenchmarkJitterSample(b *testing.B) {
	r := stats.NewRNG(8)
	for i := 0; i < b.N; i++ {
		_ = DefaultJitter.Sample(r)
	}
}
