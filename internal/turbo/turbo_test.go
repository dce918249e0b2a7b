package turbo

import (
	"math"
	"testing"
	"testing/quick"

	"rtopex/internal/bits"
	"rtopex/internal/stats"
)

func randomBlock(r *stats.RNG, k int) []byte {
	b := make([]byte, k)
	bits.RandomBits(b, r.Uint64)
	return b
}

// bpskLLR converts bits to noisy channel LLRs at the given Es/N0 (dB).
func bpskLLR(r *stats.RNG, in []byte, snrDB float64) []float64 {
	n0 := math.Pow(10, -snrDB/10)
	sigma := math.Sqrt(n0 / 2)
	out := make([]float64, len(in))
	for i, b := range in {
		s := 1.0
		if b == 1 {
			s = -1
		}
		y := s + sigma*r.NormFloat64()
		out[i] = 4 * y / n0
	}
	return out
}

func TestQPPTableComplete(t *testing.T) {
	ks := ValidBlockSizes()
	if len(ks) != 188 {
		t.Fatalf("table has %d entries, want 188", len(ks))
	}
	if ks[0] != 40 || ks[len(ks)-1] != 6144 {
		t.Fatalf("table range [%d, %d]", ks[0], ks[len(ks)-1])
	}
	// Spacing structure: step 8 to 512, 16 to 1024, 32 to 2048, 64 to 6144.
	for i := 1; i < len(ks); i++ {
		step := ks[i] - ks[i-1]
		var want int
		switch {
		case ks[i] <= 512:
			want = 8
		case ks[i] <= 1024:
			want = 16
		case ks[i] <= 2048:
			want = 32
		default:
			want = 64
		}
		if step != want {
			t.Fatalf("step %d before K=%d, want %d", step, ks[i], want)
		}
	}
}

func TestInterleaverIsPermutation(t *testing.T) {
	for _, k := range ValidBlockSizes() {
		il, err := NewInterleaver(k)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, k)
		for i := 0; i < k; i++ {
			p := il.perm[i]
			if p < 0 || p >= k || seen[p] {
				t.Fatalf("K=%d: invalid permutation at %d", k, i)
			}
			seen[p] = true
		}
	}
}

func TestInterleaverInverse(t *testing.T) {
	r := stats.NewRNG(1)
	for _, k := range []int{40, 104, 512, 1696, 6144} {
		il, _ := NewInterleaver(k)
		x := make([]float64, k)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := il.PermuteF(x, nil)
		z := il.InverseF(y, nil)
		for i := range x {
			if x[i] != z[i] {
				t.Fatalf("K=%d: inverse failed at %d", k, i)
			}
		}
	}
}

func TestInterleaverRejectsInvalidK(t *testing.T) {
	for _, k := range []int{0, 39, 41, 6145, 520} {
		if _, err := NewInterleaver(k); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
}

func TestNextBlockSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 40}, {40, 40}, {41, 48}, {512, 512}, {513, 528}, {6144, 6144},
	}
	for _, c := range cases {
		got, err := NextBlockSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("NextBlockSize(%d) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	if _, err := NextBlockSize(6145); err == nil {
		t.Error("NextBlockSize(6145) accepted")
	}
}

func TestRSCTermination(t *testing.T) {
	r := stats.NewRNG(2)
	// rscEncode must terminate in state 0 for random inputs (it panics
	// internally otherwise) and produce 3 tail bits each.
	for trial := 0; trial < 50; trial++ {
		in := randomBlock(r, 40+8*r.Intn(20))
		p, x, z := rscEncode(in)
		if len(p) != len(in) || len(x) != 3 || len(z) != 3 {
			t.Fatal("rscEncode output sizes wrong")
		}
	}
}

func TestEncodeStreamSizes(t *testing.T) {
	r := stats.NewRNG(3)
	for _, k := range []int{40, 208, 6144} {
		streams, err := EncodeStreams(randomBlock(r, k))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range streams {
			if len(s) != k+4 {
				t.Fatalf("K=%d stream %d length %d", k, i, len(s))
			}
		}
	}
	if _, err := EncodeStreams(make([]byte, 39)); err == nil {
		t.Fatal("invalid K accepted")
	}
}

func TestEncodeSystematic(t *testing.T) {
	r := stats.NewRNG(4)
	in := randomBlock(r, 96)
	streams, _ := EncodeStreams(in)
	for i, b := range in {
		if streams[0][i] != b {
			t.Fatalf("systematic stream differs at %d", i)
		}
	}
}

func TestDecodeNoiselessAllSizesSample(t *testing.T) {
	r := stats.NewRNG(5)
	// A sample of sizes spanning the table, plus the segmentation-critical
	// boundary sizes.
	for _, k := range []int{40, 64, 104, 512, 528, 1024, 1056, 2048, 2112, 6144} {
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		s := make([][]float64, 3)
		for j := range streams {
			s[j] = bpskLLR(r, streams[j], 10) // high SNR
		}
		dec, err := NewDecoder(k)
		if err != nil {
			t.Fatal(err)
		}
		res := dec.Decode(s[0], s[1], s[2], nil)
		if bits.HammingDistance(res.Bits, in) != 0 {
			t.Fatalf("K=%d: decode errors at 10 dB", k)
		}
	}
}

func TestDecodeEveryTableSizeNoiseless(t *testing.T) {
	if testing.Short() {
		t.Skip("full-table sweep in -short mode")
	}
	r := stats.NewRNG(6)
	for _, k := range ValidBlockSizes() {
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		s := make([][]float64, 3)
		for j := range streams {
			s[j] = make([]float64, len(streams[j]))
			for i, b := range streams[j] {
				if b == 1 {
					s[j][i] = -8
				} else {
					s[j][i] = 8
				}
			}
		}
		dec, _ := NewDecoder(k)
		res := dec.Decode(s[0], s[1], s[2], nil)
		if bits.HammingDistance(res.Bits, in) != 0 {
			t.Fatalf("K=%d: noiseless decode failed", k)
		}
	}
}

func TestDecodeEarlyTermination(t *testing.T) {
	r := stats.NewRNG(7)
	k := 512
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := make([][]float64, 3)
	for j := range streams {
		s[j] = bpskLLR(r, streams[j], 8)
	}
	dec, _ := NewDecoder(k)
	dec.MaxIterations = 8
	want := append([]byte(nil), in...)
	res := dec.Decode(s[0], s[1], s[2], func(b []byte) bool {
		return bits.HammingDistance(b, want) == 0
	})
	if !res.OK {
		t.Fatal("check never passed at 8 dB")
	}
	if res.Iterations >= 8 {
		t.Fatalf("no early termination: %d iterations", res.Iterations)
	}
}

// TestDecodePrecheckShortCircuit pins the raw-systematic precheck: a
// noiseless block whose raw hard decisions already pass the check reports
// Iterations == 0 — it never entered the trellis — and the same block with
// the precheck disabled pays for at least one pass.
func TestDecodePrecheckShortCircuit(t *testing.T) {
	r := stats.NewRNG(91)
	const k = 1056
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := make([][]float64, 3)
	for j := range streams {
		s[j] = make([]float64, len(streams[j]))
		for i, bit := range streams[j] {
			s[j][i] = 8 * (1 - 2*float64(bit))
		}
	}
	check := func(b []byte) bool { return bits.HammingDistance(b, in) == 0 }
	dec, err := NewDecoder(k)
	if err != nil {
		t.Fatal(err)
	}
	res := dec.Decode(s[0], s[1], s[2], check)
	if !res.OK || res.Iterations != 0 {
		t.Fatalf("clean block: OK=%v Iterations=%d, want precheck hit (OK, 0 iterations)", res.OK, res.Iterations)
	}
	if d := bits.HammingDistance(res.Bits, in); d != 0 {
		t.Fatalf("clean block: precheck bits differ from payload in %d positions", d)
	}
	dec.PrecheckRaw = false
	if res := dec.Decode(s[0], s[1], s[2], check); !res.OK || res.Iterations != 1 {
		t.Fatalf("precheck off: OK=%v Iterations=%d, want OK after 1 iteration", res.OK, res.Iterations)
	}
}

func TestDecodeIterationCountGrowsWithNoise(t *testing.T) {
	// At lower SNR the decoder needs more iterations on average — this is
	// the paper's L(SNR) behavior feeding the timing model.
	r := stats.NewRNG(8)
	k := 1024
	avgIters := func(snrDB float64) float64 {
		sum := 0
		const trials = 30
		for trial := 0; trial < trials; trial++ {
			in := randomBlock(r, k)
			streams, _ := EncodeStreams(in)
			s := make([][]float64, 3)
			for j := range streams {
				s[j] = bpskLLR(r, streams[j], snrDB)
			}
			dec, _ := NewDecoder(k)
			dec.MaxIterations = 8
			want := append([]byte(nil), in...)
			res := dec.Decode(s[0], s[1], s[2], func(b []byte) bool {
				return bits.HammingDistance(b, want) == 0
			})
			sum += res.Iterations
		}
		return float64(sum) / trials
	}
	hi := avgIters(2)
	lo := avgIters(-3.5)
	if lo <= hi {
		t.Fatalf("iterations at low SNR (%v) not above high SNR (%v)", lo, hi)
	}
}

func TestDecoderCorrectsErrorsThatHardDecisionCannot(t *testing.T) {
	// At ~1.5 dB a rate-1/3 hard decision has many bit errors but turbo
	// decoding should still converge most of the time for moderate K.
	r := stats.NewRNG(9)
	k := 1024
	success := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		s := make([][]float64, 3)
		rawErrs := 0
		for j := range streams {
			s[j] = bpskLLR(r, streams[j], 1.5)
			for i := range s[j] {
				var hard byte
				if s[j][i] < 0 {
					hard = 1
				}
				if hard != streams[j][i] {
					rawErrs++
				}
			}
		}
		if rawErrs == 0 {
			t.Fatal("test SNR too high: no raw channel errors")
		}
		dec, _ := NewDecoder(k)
		dec.MaxIterations = 8
		res := dec.Decode(s[0], s[1], s[2], nil)
		if bits.HammingDistance(res.Bits, in) == 0 {
			success++
		}
	}
	if success < trials*8/10 {
		t.Fatalf("decoded %d/%d blocks at 1.5 dB", success, trials)
	}
}

func TestDecodePanicsOnBadLengths(t *testing.T) {
	dec, _ := NewDecoder(40)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short streams")
		}
	}()
	dec.Decode(make([]float64, 40), make([]float64, 44), make([]float64, 44), nil)
}

func TestRateMatchFullMotherCode(t *testing.T) {
	// With E = total non-NULL bits, matching then dematching must recover
	// every stream position exactly once.
	r := stats.NewRNG(10)
	k := 104
	rm, err := NewRateMatcher(k)
	if err != nil {
		t.Fatal(err)
	}
	streams, _ := EncodeStreams(randomBlock(r, k))
	e := 3 * (k + 4)
	out, err := rm.Match(streams, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != e {
		t.Fatalf("output length %d, want %d", len(out), e)
	}
	// Soft-dematch the hard bits as ±1 and verify all positions filled once.
	llrs := make([]float64, e)
	for i, b := range out {
		if b == 1 {
			llrs[i] = -1
		} else {
			llrs[i] = 1
		}
	}
	s0, s1, s2, err := rm.Dematch(llrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range [][]float64{s0, s1, s2} {
		for i, v := range s {
			if math.Abs(v) != 1 {
				t.Fatalf("stream %d position %d combined weight %v, want ±1", j, i, v)
			}
			var hard byte
			if v < 0 {
				hard = 1
			}
			if hard != streams[j][i] {
				t.Fatalf("stream %d position %d value mismatch", j, i)
			}
		}
	}
}

func TestRateMatchPuncturing(t *testing.T) {
	// E < mother code: dematch leaves exactly (3(K+4) - E) zeros.
	r := stats.NewRNG(11)
	k := 208
	rm, _ := NewRateMatcher(k)
	streams, _ := EncodeStreams(randomBlock(r, k))
	e := 2 * (k + 4)
	out, _ := rm.Match(streams, e, 0)
	llrs := make([]float64, e)
	for i, b := range out {
		llrs[i] = 1 - 2*float64(b)
	}
	s0, s1, s2, _ := rm.Dematch(llrs, 0)
	zeros := 0
	for _, s := range [][]float64{s0, s1, s2} {
		for _, v := range s {
			if v == 0 {
				zeros++
			}
		}
	}
	if zeros != 3*(k+4)-e {
		t.Fatalf("%d unobserved positions, want %d", zeros, 3*(k+4)-e)
	}
}

func TestRateMatchRepetitionCombines(t *testing.T) {
	// E > mother code: wrapped positions accumulate weight 2.
	r := stats.NewRNG(12)
	k := 40
	rm, _ := NewRateMatcher(k)
	streams, _ := EncodeStreams(randomBlock(r, k))
	mother := 3 * (k + 4)
	e := mother + 60
	out, _ := rm.Match(streams, e, 0)
	llrs := make([]float64, e)
	for i, b := range out {
		llrs[i] = 1 - 2*float64(b)
	}
	s0, s1, s2, _ := rm.Dematch(llrs, 0)
	twos := 0
	for _, s := range [][]float64{s0, s1, s2} {
		for _, v := range s {
			if math.Abs(v) == 2 {
				twos++
			}
		}
	}
	if twos != 60 {
		t.Fatalf("%d doubled positions, want 60", twos)
	}
}

func TestRateMatchSystematicPriority(t *testing.T) {
	// rv=0 starts 2R into the systematic section, so for moderate E the
	// selected bits should be dominated by stream 0 (this is the circular
	// buffer's design intent).
	k := 1024
	rm, _ := NewRateMatcher(k)
	streams := [][]byte{make([]byte, k+4), make([]byte, k+4), make([]byte, k+4)}
	for i := range streams[0] {
		streams[0][i] = 1 // mark systematic bits
	}
	e := k // fewer than one full stream
	out, _ := rm.Match(streams, e, 0)
	sys := 0
	for _, b := range out {
		sys += int(b)
	}
	// k0 = 2R skips the head of the systematic section and the tail spills
	// into the parity region, so ~94% (not 100%) is the expected share.
	if float64(sys)/float64(e) < 0.90 {
		t.Fatalf("only %d/%d selected bits systematic at rv=0", sys, e)
	}
}

func TestRateMatchRVShiftsStart(t *testing.T) {
	k := 512
	rm, _ := NewRateMatcher(k)
	if rm.k0(0) >= rm.k0(1) || rm.k0(1) >= rm.k0(2) {
		t.Fatal("k0 not increasing in rv")
	}
}

func TestRateMatcherErrors(t *testing.T) {
	rm, _ := NewRateMatcher(40)
	if _, err := rm.Match([][]byte{nil, nil}, 10, 0); err == nil {
		t.Error("2 streams accepted")
	}
	if _, err := rm.Match([][]byte{make([]byte, 44), make([]byte, 44), make([]byte, 43)}, 10, 0); err == nil {
		t.Error("short stream accepted")
	}
	if _, err := rm.Match([][]byte{make([]byte, 44), make([]byte, 44), make([]byte, 44)}, 0, 0); err == nil {
		t.Error("E=0 accepted")
	}
	if _, _, _, err := rm.Dematch(nil, 0); err == nil {
		t.Error("empty dematch accepted")
	}
	if _, err := NewRateMatcher(39); err == nil {
		t.Error("invalid K accepted")
	}
}

func TestEndToEndCodedRoundTripWithRateMatching(t *testing.T) {
	// encode -> rate match -> BPSK+AWGN -> dematch -> decode for several
	// code rates.
	r := stats.NewRNG(13)
	k := 1024
	for _, e := range []int{(k + 4) * 3, 2 * k, 3 * k / 2} {
		in := randomBlock(r, k)
		streams, _ := EncodeStreams(in)
		rm, _ := NewRateMatcher(k)
		tx, err := rm.Match(streams, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		llrs := bpskLLR(r, tx, 7)
		s0, s1, s2, _ := rm.Dematch(llrs, 0)
		dec, _ := NewDecoder(k)
		dec.MaxIterations = 8
		res := dec.Decode(s0, s1, s2, nil)
		if bits.HammingDistance(res.Bits, in) != 0 {
			t.Fatalf("E=%d: decode failed at 7 dB", e)
		}
	}
}

func TestSegmentationSingleBlock(t *testing.T) {
	s, err := Segment(6144)
	if err != nil {
		t.Fatal(err)
	}
	if s.C != 1 || s.Sizes[0] != 6144 || s.F != 0 {
		t.Fatalf("unexpected segmentation %+v", s)
	}
	s, _ = Segment(100)
	if s.C != 1 || s.Sizes[0] != 104 || s.F != 4 {
		t.Fatalf("unexpected segmentation %+v", s)
	}
}

func TestSegmentationMultiBlock(t *testing.T) {
	s, err := Segment(6145)
	if err != nil {
		t.Fatal(err)
	}
	if s.C != 2 {
		t.Fatalf("C = %d, want 2", s.C)
	}
	total := 0
	for _, k := range s.Sizes {
		total += k
	}
	// Sum of block sizes = B + C·24 (CRCs) + F (fillers).
	if total != s.B+s.C*24+s.F {
		t.Fatalf("size accounting: %d != %d", total, s.B+s.C*24+s.F)
	}
}

func TestSegmentationSplitJoinRoundTrip(t *testing.T) {
	r := stats.NewRNG(14)
	for _, b := range []int{40, 100, 6144, 6145, 10000, 20000, 75376} {
		in := randomBlock(r, b)
		s, err := Segment(b)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := s.Split(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, blk := range blocks {
			if len(blk) != s.Sizes[i] {
				t.Fatalf("B=%d block %d size %d, want %d", b, i, len(blk), s.Sizes[i])
			}
			if s.crcLen > 0 && !bits.CheckCRC24B(blk) {
				t.Fatalf("B=%d block %d CRC failed directly after Split", b, i)
			}
		}
		out, err := s.JoinInto(make([]byte, s.B), blocks)
		if err != nil {
			t.Fatal(err)
		}
		if bits.HammingDistance(in, out) != 0 {
			t.Fatalf("B=%d: round trip corrupted data", b)
		}
	}
}

func TestSegmentationProperty(t *testing.T) {
	f := func(raw uint16) bool {
		b := int(raw)%70000 + 40
		s, err := Segment(b)
		if err != nil {
			return false
		}
		for _, k := range s.Sizes {
			if err := validateBlockLen(k); err != nil {
				return false
			}
		}
		// Every block payload must be positive.
		crc := 0
		if s.C > 1 {
			crc = 24
		}
		if s.Sizes[0]-s.F-crc <= 0 {
			return false
		}
		total := 0
		for _, k := range s.Sizes {
			total += k
		}
		return total == b+s.C*crc+s.F
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentErrors(t *testing.T) {
	if _, err := Segment(0); err == nil {
		t.Error("Segment(0) accepted")
	}
	s, _ := Segment(100)
	if _, err := s.Split(make([]byte, 99)); err == nil {
		t.Error("short Split input accepted")
	}
	if _, err := s.JoinInto(make([]byte, s.B), nil); err == nil {
		t.Error("empty Join accepted")
	}
	if _, err := s.JoinInto(make([]byte, s.B), [][]byte{make([]byte, 3)}); err == nil {
		t.Error("wrong block size accepted")
	}
}

func TestPerBlockE(t *testing.T) {
	es, err := PerBlockE(43200, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 6 {
		t.Fatalf("%d entries", len(es))
	}
	sum := 0
	for _, e := range es {
		sum += e
		if e%6 != 0 {
			t.Fatalf("E=%d not a multiple of Qm", e)
		}
	}
	if sum != 43200 {
		t.Fatalf("sum(E) = %d, want 43200", sum)
	}
	if _, err := PerBlockE(100, 3, 6); err == nil {
		t.Error("G not multiple of Qm accepted")
	}
	if _, err := PerBlockE(0, 1, 2); err == nil {
		t.Error("G=0 accepted")
	}
}

func TestPerBlockEUneven(t *testing.T) {
	// G' = 101, C = 2: blocks get 50·Qm and 51·Qm.
	es, err := PerBlockE(202, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if es[0] != 100 || es[1] != 102 {
		t.Fatalf("es = %v", es)
	}
}

func BenchmarkEncode6144(b *testing.B) {
	r := stats.NewRNG(15)
	in := randomBlock(r, 6144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = EncodeStreams(in)
	}
}

func BenchmarkDecode6144Iter1(b *testing.B) {
	benchDecode(b, 6144, 1)
}

func BenchmarkDecode6144Iter4(b *testing.B) {
	benchDecode(b, 6144, 4)
}

func BenchmarkDecode1024Iter4(b *testing.B) {
	benchDecode(b, 1024, 4)
}

func benchDecode(b *testing.B, k, iters int) {
	r := stats.NewRNG(16)
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := make([][]float64, 3)
	for j := range streams {
		s[j] = bpskLLR(r, streams[j], 5)
	}
	dec, _ := NewDecoder(k)
	dec.MaxIterations = iters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dec.Decode(s[0], s[1], s[2], nil)
	}
}

func TestTurboWaterfall(t *testing.T) {
	// The block error rate must fall off a cliff across the turbo
	// threshold: near-certain failure at -2.5 dB Es/N0 (Eb/N0 ≈ 2.3 dB is
	// fine, -2.5 dB Es/N0 means Eb/N0 ≈ 2.3... rate 1/3 ⇒ +4.77 dB), and
	// near-certain success 3 dB higher.
	r := stats.NewRNG(40)
	k := 1024
	bler := func(snrDB float64) float64 {
		fails := 0
		const trials = 25
		for i := 0; i < trials; i++ {
			in := randomBlock(r, k)
			streams, _ := EncodeStreams(in)
			s := make([][]float64, 3)
			for j := range streams {
				s[j] = bpskLLR(r, streams[j], snrDB)
			}
			dec, _ := NewDecoder(k)
			dec.MaxIterations = 8
			res := dec.Decode(s[0], s[1], s[2], nil)
			if bits.HammingDistance(res.Bits, in) != 0 {
				fails++
			}
		}
		return float64(fails) / trials
	}
	low := bler(-5.5)
	high := bler(-2.5)
	if low < 0.9 {
		t.Fatalf("BLER at -5.5 dB = %v, want ~1 (below the waterfall)", low)
	}
	if high > 0.1 {
		t.Fatalf("BLER at -2.5 dB = %v, want ~0 (above the waterfall)", high)
	}
}

func TestDecoderScratchReuseIsClean(t *testing.T) {
	// A decoder instance must give identical results whether fresh or
	// reused after decoding unrelated data.
	r := stats.NewRNG(41)
	k := 512
	in := randomBlock(r, k)
	streams, _ := EncodeStreams(in)
	s := make([][]float64, 3)
	for j := range streams {
		s[j] = bpskLLR(r, streams[j], 3)
	}
	fresh, _ := NewDecoder(k)
	want := fresh.Decode(s[0], s[1], s[2], nil)
	wantBits := append([]byte(nil), want.Bits...)

	reused, _ := NewDecoder(k)
	// Pollute the scratch with a different block first.
	other := randomBlock(r, k)
	os, _ := EncodeStreams(other)
	o := make([][]float64, 3)
	for j := range os {
		o[j] = bpskLLR(r, os[j], 3)
	}
	reused.Decode(o[0], o[1], o[2], nil)
	got := reused.Decode(s[0], s[1], s[2], nil)
	if bits.HammingDistance(got.Bits, wantBits) != 0 {
		t.Fatal("reused decoder produced different bits")
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("reused decoder iterations %d vs %d", got.Iterations, want.Iterations)
	}
}
