package obs

import (
	"math"
	"reflect"
	"testing"
)

// lcg is a tiny deterministic generator for test sample streams (the tests
// must not depend on wall-clock or global RNG state).
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

func TestBucketIndexRoundTrip(t *testing.T) {
	for _, v := range []float64{1e-6, 0.5, 1, 1.5, 2, 3, 1000, 2000.5, 7e9} {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi {
			t.Errorf("v=%g landed in bucket %d = [%g, %g)", v, i, lo, hi)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	var g lcg = 42
	want := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := 10 + 1990*g.next() // µs-scale latencies
		h.Observe(v)
		want = append(want, v)
	}
	// The bucket midpoint is within 1/(2·M) of any sample in the bucket; the
	// quantile estimate inherits that relative error bound.
	const tol = 1.0 / (2 * histSubBuckets)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		exact := exactQuantile(want, q)
		if rel := math.Abs(got-exact) / exact; rel > tol {
			t.Errorf("q=%v: got %g, exact %g, rel err %.4f > %.4f", q, got, exact, rel, tol)
		}
	}
	if h.Count() != 5000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort: n is small
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// TestShardMergeMatchesSerial is the tentpole property: splitting a sample
// stream across shards and merging the shard histograms yields the same
// buckets, count, min, max — and therefore the same quantiles — as one
// histogram fed serially.
func TestShardMergeMatchesSerial(t *testing.T) {
	const shards = 7
	var g lcg = 99
	samples := make([]float64, 20000)
	for i := range samples {
		switch i % 50 {
		case 0:
			samples[i] = 0 // exercise the zero bucket
		case 1:
			samples[i] = -500 * g.next() // and negatives
		default:
			samples[i] = 2000 * g.next()
		}
	}

	serial := NewHistogram()
	for _, v := range samples {
		serial.Observe(v)
	}

	parts := make([]*Histogram, shards)
	for s := range parts {
		parts[s] = NewHistogram()
	}
	for i, v := range samples {
		parts[i%shards].Observe(v)
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}

	sv, mv := serial.Value(), merged.Value()
	if sv.Count != mv.Count || sv.Min != mv.Min || sv.Max != mv.Max || sv.Zero != mv.Zero {
		t.Fatalf("scalar state differs: serial %+v merged %+v", sv, mv)
	}
	if !reflect.DeepEqual(sv.Pos, mv.Pos) || !reflect.DeepEqual(sv.Neg, mv.Neg) {
		t.Fatal("bucket maps differ between serial and merged")
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if s, m := sv.Quantile(q), mv.Quantile(q); s != m {
			t.Errorf("q=%v: serial %g != merged %g", q, s, m)
		}
	}
	// Sum is float accumulation: equal up to ulp-scale reassociation error.
	if math.Abs(sv.Sum-mv.Sum) > 1e-6*math.Abs(sv.Sum) {
		t.Errorf("sums diverged beyond tolerance: %g vs %g", sv.Sum, mv.Sum)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram should report NaN")
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if h.Count() != 0 {
		t.Fatal("non-finite samples must not count")
	}
	v := h.Value()
	if v.NonFinite != 2 {
		t.Fatalf("nonFinite = %d, want 2", v.NonFinite)
	}

	h.Observe(5)
	if got := h.Quantile(0.5); got < 5*(1-1.0/histSubBuckets) || got > 5*(1+1.0/histSubBuckets) {
		t.Fatalf("single-sample quantile = %g, want ≈5", got)
	}
	// Quantiles clamp to observed min/max, never report beyond them.
	if h.Quantile(1) != 5 || h.Quantile(0) != 5 {
		t.Fatalf("extreme quantiles should clamp to the single sample: q0=%g q1=%g", h.Quantile(0), h.Quantile(1))
	}
}

// TestObserveAllMatchesObserve: one ObserveAll over a series leaves the
// histogram identical to per-sample Observe calls, non-finite samples,
// zeros and negatives included.
func TestObserveAllMatchesObserve(t *testing.T) {
	xs := []float64{3, 0, -2.5, math.NaN(), math.Inf(1), 1e-9, math.Inf(-1), -0.0, 7e6, -1e4, 0.75}
	var g lcg = 11
	for i := 0; i < 500; i++ {
		xs = append(xs, (g.next()-0.3)*1e4)
	}
	each, all := NewHistogram(), NewHistogram()
	each.Observe(1) // a series can land on a histogram that already holds samples
	all.Observe(1)
	for _, x := range xs {
		each.Observe(x)
	}
	all.ObserveAll(xs)
	if ev, av := each.Value(), all.Value(); !reflect.DeepEqual(ev, av) {
		t.Fatalf("ObserveAll gave %+v, per-sample Observe %+v", av, ev)
	}
	if v := all.Value(); v.NonFinite != 3 || v.Zero != 2 || len(v.Neg) == 0 {
		t.Fatalf("the series does not exercise every branch: %+v", v)
	}
}

func TestHistogramPowerOfTwoBoundary(t *testing.T) {
	// Exact powers of two must open their own octave (index M·e), and values
	// just below must land in the previous octave's last subbucket.
	for _, e := range []int{-3, 0, 1, 10} {
		v := math.Ldexp(1, e)
		if got, want := bucketIndex(v), e*histSubBuckets; got != want {
			t.Errorf("bucketIndex(2^%d) = %d, want %d", e, got, want)
		}
		below := math.Nextafter(v, 0)
		if got, want := bucketIndex(below), e*histSubBuckets-1; got != want {
			t.Errorf("bucketIndex(just below 2^%d) = %d, want %d", e, got, want)
		}
	}
}
