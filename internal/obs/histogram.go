package obs

import (
	"math"
	"sort"
	"sync"
)

// histSubBuckets is the number of linear subbuckets per power of two (the
// "log-linear" layout). A sample in bucket [lo, hi) has hi−lo = lo/M·…, so
// reporting the bucket midpoint bounds the relative error by 1/(2·M) ≈
// 1.6%. Unlike stats.Histogram, no a-priori [lo, hi) range is needed and
// two histograms merge exactly (bucket-wise count addition).
const histSubBuckets = 32

// Histogram is a streaming log-linear histogram: values are binned by
// (power-of-two exponent × linear subbucket), so the bin width tracks the
// magnitude of the data and the relative quantile error is bounded by
// 1/(2·histSubBuckets) regardless of range. It is safe for concurrent use.
//
// Zero and negative values get their own buckets (negative values mirror
// the positive layout), so gap series that touch zero survive intact.
// Non-finite samples (NaN, ±Inf) are counted separately and excluded from
// the distribution.
type Histogram struct {
	mu        sync.Mutex
	pos       map[int]uint64 // bucketIndex(v) → count, v > 0
	neg       map[int]uint64 // bucketIndex(−v) → count, v < 0
	zero      uint64
	count     uint64
	sum       float64
	min, max  float64 // valid when count > 0
	nonFinite uint64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{pos: map[int]uint64{}, neg: map[int]uint64{}}
}

// bucketIndex maps v > 0 to its bucket: v = m·2^e with m ∈ [1,2) lands in
// index e·M + floor((m−1)·M). Exact powers of two open their octave.
func bucketIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	m := 2 * frac              // ∈ [1, 2), v = m·2^(exp−1)
	sub := int((m - 1) * histSubBuckets)
	if sub >= histSubBuckets { // guard float rounding at the octave edge
		sub = histSubBuckets - 1
	}
	return (exp-1)*histSubBuckets + sub
}

// bucketBounds inverts bucketIndex: the half-open value range [lo, hi) of
// bucket i.
func bucketBounds(i int) (lo, hi float64) {
	e := floorDiv(i, histSubBuckets)
	s := i - e*histSubBuckets
	scale := math.Ldexp(1, e)
	lo = scale * (1 + float64(s)/histSubBuckets)
	hi = scale * (1 + float64(s+1)/histSubBuckets)
	return lo, hi
}

// bucketMid is the representative value reported for bucket i.
func bucketMid(i int) float64 {
	lo, hi := bucketBounds(i)
	return (lo + hi) / 2
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observe(v)
}

// ObserveAll records every sample of xs, in order, under one lock: the
// histogram ends exactly as if Observe had been called on each.
func (h *Histogram) ObserveAll(xs []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range xs {
		h.observe(v)
	}
}

// observe records v; the caller holds h.mu.
func (h *Histogram) observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite++
		return
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	switch {
	case v == 0:
		h.zero++
	case v > 0:
		h.pos[bucketIndex(v)]++
	default:
		h.neg[bucketIndex(-v)]++
	}
}

// Merge folds other into h: bucket counts add, so the result is identical
// to a histogram that observed both sample streams. Count, Min, Max and the
// buckets (hence all quantiles) merge exactly; Sum is a float accumulation
// and may differ from a serial fill in the last ulp.
func (h *Histogram) Merge(other *Histogram) { h.MergeValue(other.Value()) }

// Count returns the number of finite samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the sample mean (NaN when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with relative error bounded
// by 1/(2·histSubBuckets). NaN when empty.
func (h *Histogram) Quantile(q float64) float64 { return h.Value().Quantile(q) }

// Value snapshots the histogram's current state.
func (h *Histogram) Value() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := HistogramValue{
		Count:     h.count,
		Sum:       h.sum,
		Zero:      h.zero,
		NonFinite: h.nonFinite,
	}
	if h.count > 0 {
		v.Min, v.Max = h.min, h.max
	}
	v.Pos = bucketCounts(h.pos)
	v.Neg = bucketCounts(h.neg)
	return v
}

// MergeValue folds a snapshot into h (the store-level merge path).
func (h *Histogram) MergeValue(v HistogramValue) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v.Count > 0 {
		if h.count == 0 {
			h.min, h.max = v.Min, v.Max
		} else {
			if v.Min < h.min {
				h.min = v.Min
			}
			if v.Max > h.max {
				h.max = v.Max
			}
		}
	}
	h.count += v.Count
	h.sum += v.Sum
	h.zero += v.Zero
	h.nonFinite += v.NonFinite
	for _, b := range v.Pos {
		h.pos[b.Index] += b.Count
	}
	for _, b := range v.Neg {
		h.neg[b.Index] += b.Count
	}
}

// BucketCount is one occupied bucket of a histogram snapshot.
type BucketCount struct {
	Index int    `json:"i"`
	Count uint64 `json:"n"`
}

// bucketCounts flattens a bucket map into index-sorted pairs.
func bucketCounts(m map[int]uint64) []BucketCount {
	if len(m) == 0 {
		return nil
	}
	out := make([]BucketCount, 0, len(m))
	for i, n := range m {
		out = append(out, BucketCount{Index: i, Count: n})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// HistogramValue is the serializable snapshot of a Histogram. Buckets are
// index-sorted, so the JSON encoding of a given state is deterministic.
type HistogramValue struct {
	Count     uint64        `json:"count"`
	Sum       float64       `json:"sum"`
	Min       float64       `json:"min"`
	Max       float64       `json:"max"`
	Zero      uint64        `json:"zero,omitempty"`
	NonFinite uint64        `json:"nonfinite,omitempty"`
	Pos       []BucketCount `json:"pos,omitempty"`
	Neg       []BucketCount `json:"neg,omitempty"`
}

// Quantile returns the q-quantile of the snapshot: the representative value
// of the bucket holding the ⌈q·count⌉-th smallest sample, clamped to
// [Min, Max]. Relative error is bounded by 1/(2·histSubBuckets).
func (v HistogramValue) Quantile(q float64) float64 {
	if v.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(v.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	clamp := func(x float64) float64 {
		if x < v.Min {
			return v.Min
		}
		if x > v.Max {
			return v.Max
		}
		return x
	}
	// Ascending value order: negatives by descending magnitude, zero, then
	// positives by ascending magnitude.
	for i := len(v.Neg) - 1; i >= 0; i-- {
		cum += v.Neg[i].Count
		if cum >= rank {
			return clamp(-bucketMid(v.Neg[i].Index))
		}
	}
	cum += v.Zero
	if cum >= rank {
		return 0
	}
	for _, b := range v.Pos {
		cum += b.Count
		if cum >= rank {
			return clamp(bucketMid(b.Index))
		}
	}
	return v.Max
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
