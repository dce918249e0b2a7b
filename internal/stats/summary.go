package stats

import (
	"math"
	"sort"
)

// Summary holds the moments and order statistics of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
	P999, P9999   float64
}

// Summarize computes a Summary of xs. It copies xs before sorting, so the
// caller's slice is left untouched. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sq float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	for _, x := range sorted {
		d := x - mean
		sq += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(sq / float64(len(sorted)-1))
	}
	return Summary{
		N:     len(sorted),
		Mean:  mean,
		Std:   std,
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   quantileSorted(sorted, 0.50),
		P90:   quantileSorted(sorted, 0.90),
		P99:   quantileSorted(sorted, 0.99),
		P999:  quantileSorted(sorted, 0.999),
		P9999: quantileSorted(sorted, 0.9999),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF is an empirical cumulative distribution function over a sorted sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied and sorted).
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Advance past equal values so At is right-continuous (<=, not <).
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the inverse CDF at q.
func (c *CDF) Quantile(q float64) float64 { return quantileSorted(c.sorted, q) }

// Welford accumulates streaming mean and variance without storing samples.
type Welford struct {
	n        int
	mean, m2 float64
	max      float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	if w.n == 0 || x > w.max {
		w.max = x
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Max returns the largest recorded sample (0 if none).
func (w *Welford) Max() float64 { return w.max }
