package turbo

import "fmt"

// Sub-block interleaver column permutation (TS 36.212 Table 5.1.4-1).
var colPerm = [32]int{
	0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
	1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31,
}

// RateMatcher performs circular-buffer rate matching for one turbo code
// block of size K: sub-block interleaving of the three D = K+4 streams,
// bit collection into the length-3·KΠ circular buffer, and bit selection /
// soft combining. The uplink soft-buffer is unrestricted, so Ncb = 3·KΠ.
type RateMatcher struct {
	K   int // info block size
	D   int // per-stream length, K+4
	R   int // sub-block rows
	KPi int // padded per-stream length, R·32
	Ncb int // circular buffer length, 3·KPi

	// wStream/wIndex map circular-buffer position -> (stream, in-stream
	// index), with stream = -1 marking <NULL> padding positions.
	wStream []int8
	wIndex  []int32
}

// NewRateMatcher builds the interleaving maps for block size k (validated
// against the QPP table, since rate matching always follows encoding).
func NewRateMatcher(k int) (*RateMatcher, error) {
	if err := validateBlockLen(k); err != nil {
		return nil, err
	}
	d := k + 4
	r := (d + 31) / 32
	kpi := 32 * r
	nd := kpi - d // leading <NULL> count
	rm := &RateMatcher{
		K: k, D: d, R: r, KPi: kpi, Ncb: 3 * kpi,
		wStream: make([]int8, 3*kpi),
		wIndex:  make([]int32, 3*kpi),
	}

	// Streams 0 and 1: write row-wise (with nd NULLs first), permute
	// columns, read column-wise. Position n = c·R + row reads matrix cell
	// (row, colPerm[c]) = original index row·32 + colPerm[c] - nd.
	sub01 := make([]int32, kpi)
	for c := 0; c < 32; c++ {
		for row := 0; row < r; row++ {
			orig := row*32 + colPerm[c] - nd
			if orig < 0 {
				sub01[c*r+row] = -1
			} else {
				sub01[c*r+row] = int32(orig)
			}
		}
	}
	// Stream 2 uses the shifted permutation
	// π(n) = (colPerm[⌊n/R⌋] + 32·(n mod R) + 1) mod KΠ.
	sub2 := make([]int32, kpi)
	for n := 0; n < kpi; n++ {
		pi := (colPerm[n/r] + 32*(n%r) + 1) % kpi
		orig := pi - nd
		if orig < 0 {
			sub2[n] = -1
		} else {
			sub2[n] = int32(orig)
		}
	}

	// Circular buffer: w[0..KΠ) = v0; then v1 and v2 interlaced.
	for n := 0; n < kpi; n++ {
		rm.place(n, 0, sub01[n])
		rm.place(kpi+2*n, 1, sub01[n])
		rm.place(kpi+2*n+1, 2, sub2[n])
	}
	return rm, nil
}

func (rm *RateMatcher) place(pos int, stream int8, orig int32) {
	if orig < 0 {
		rm.wStream[pos] = -1
		return
	}
	rm.wStream[pos] = stream
	rm.wIndex[pos] = orig
}

// k0 returns the bit-selection start for redundancy version rv.
func (rm *RateMatcher) k0(rv int) int {
	// k0 = R·(2·⌈Ncb/(8R)⌉·rv + 2); with Ncb = 96R the ceil term is 12.
	return rm.R * (2*((rm.Ncb+8*rm.R-1)/(8*rm.R))*rv + 2)
}

// Match selects e output bits for redundancy version rv from the encoded
// streams (each of length K+4). Selection wraps the circular buffer,
// skipping NULLs, so e may exceed the mother-code length (repetition).
func (rm *RateMatcher) Match(streams [][]byte, e, rv int) ([]byte, error) {
	if len(streams) != 3 {
		return nil, fmt.Errorf("turbo: Match needs 3 streams, got %d", len(streams))
	}
	for i, s := range streams {
		if len(s) != rm.D {
			return nil, fmt.Errorf("turbo: stream %d length %d, want %d", i, len(s), rm.D)
		}
	}
	if e <= 0 {
		return nil, fmt.Errorf("turbo: non-positive output length %d", e)
	}
	out := make([]byte, 0, e)
	pos := rm.k0(rv) % rm.Ncb
	for len(out) < e {
		if s := rm.wStream[pos]; s >= 0 {
			out = append(out, streams[s][rm.wIndex[pos]])
		}
		pos++
		if pos == rm.Ncb {
			pos = 0
		}
	}
	return out, nil
}

// CoversSystematic reports whether bit selection at (e, rv) observes every
// systematic information position (stream-0 indices below K). When it does
// not — e.g. rv 0 starts the circular buffer 2R positions in, puncturing the
// first ~2R systematic bits at high code rates — raw hard decisions can
// never pass a CRC and the decoder's iteration-0 pre-check is futile; the
// receiver uses this to decide whether to enable it. O(Ncb); call at setup,
// not per subframe.
func (rm *RateMatcher) CoversSystematic(e, rv int) bool {
	if e <= 0 {
		return false
	}
	seen := make([]bool, rm.K)
	covered := 0
	pos := rm.k0(rv) % rm.Ncb
	for i := 0; i < e; {
		if s := rm.wStream[pos]; s >= 0 {
			if s == 0 {
				if idx := int(rm.wIndex[pos]); idx < rm.K && !seen[idx] {
					seen[idx] = true
					covered++
					if covered == rm.K {
						return true
					}
				}
			}
			i++
		}
		pos++
		if pos == rm.Ncb {
			pos = 0
		}
	}
	return false
}

// Dematch distributes e received LLRs back into per-stream soft values,
// soft-combining repeated positions by addition. Unobserved (punctured)
// positions are zero. The returned slices have length K+4 each.
func (rm *RateMatcher) Dematch(llrs []float64, rv int) (s0, s1, s2 []float64, err error) {
	s0 = make([]float64, rm.D)
	s1 = make([]float64, rm.D)
	s2 = make([]float64, rm.D)
	if err := rm.DematchInto(s0, s1, s2, llrs, rv); err != nil {
		return nil, nil, nil, err
	}
	return s0, s1, s2, nil
}

// DematchInto accumulates e received LLRs into existing per-stream soft
// buffers (each of length K+4); the caller clears them per transmission.
// Repeated positions of the circular buffer add their evidence.
func (rm *RateMatcher) DematchInto(s0, s1, s2, llrs []float64, rv int) error {
	if len(llrs) == 0 {
		return fmt.Errorf("turbo: Dematch of empty input")
	}
	if len(s0) != rm.D || len(s1) != rm.D || len(s2) != rm.D {
		return fmt.Errorf("turbo: soft buffers (%d,%d,%d), want %d each", len(s0), len(s1), len(s2), rm.D)
	}
	streams := [3][]float64{s0, s1, s2}
	pos := rm.k0(rv) % rm.Ncb
	for i := 0; i < len(llrs); {
		if s := rm.wStream[pos]; s >= 0 {
			streams[s][rm.wIndex[pos]] += llrs[i]
			i++
		}
		pos++
		if pos == rm.Ncb {
			pos = 0
		}
	}
	return nil
}
