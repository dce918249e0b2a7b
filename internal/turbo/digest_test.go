package turbo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	_ "unsafe" // for go:linkname

	"rtopex/internal/bits"
	"rtopex/internal/stats"
)

// quantKernels is internal/modulation's unexported kernel switch, which
// selects the AVX2 LLR quantizer Decode runs at its boundary; reached by
// linkname so the digests below cover both quantizer paths without an
// exported test hook.
//
//go:linkname quantKernels rtopex/internal/modulation.kernelsEnabled
var quantKernels bool

// decodeDigest is FNV-1a over everything a Decode leaves behind that a later
// pass or caller can observe: the hard decisions, the iteration count, the
// verdict, and both final extrinsic buffers (decoder 1's and decoder 2's).
func decodeDigest(d *Decoder, res Result) uint64 {
	h := fnv.New64a()
	h.Write(res.Bits)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(res.Iterations))
	h.Write(b[:])
	ok := byte(0)
	if res.OK {
		ok = 1
	}
	h.Write([]byte{ok})
	for _, v := range [][]int16{d.qle1, d.qle} {
		for _, x := range v {
			binary.LittleEndian.PutUint16(b[:2], uint16(x))
			h.Write(b[:2])
		}
	}
	return h.Sum64()
}

// eachDecodePath runs f with the trellis kernels and the quantizer kernel on
// (where this host has them), then both off.
func eachDecodePath(t *testing.T, f func(t *testing.T)) {
	hw := [2]bool{radix4Enabled, quantKernels}
	set := func(v [2]bool) { radix4Enabled, quantKernels = v[0], v[1] }
	defer set(hw)
	if hw[0] || hw[1] {
		t.Run("kernels", f)
	}
	set([2]bool{})
	t.Run("scalar", f)
}

// digestInputs builds, for block size k, a block whose last 24 bits are its
// CRC24B and the four soft inputs of the digest grid: the waterfall's noisy
// side and its clean side, every LLR on the rail with signs that form no
// codeword, and the punctured head.
func digestInputs(k int) []struct {
	name string
	s    [][]float64
} {
	r := stats.NewRNG(9000 + uint64(k))
	in := randomBlock(r, k-24)
	in = bits.AppendCRC(in, bits.CRC24B(in), 24)
	streams, _ := EncodeStreams(in)
	railed := make([][]float64, 3)
	for j := range railed {
		railed[j] = make([]float64, k+4)
		for i := range railed[j] {
			railed[j][i] = 1e6 * (1 - 2*float64(r.Intn(2)))
		}
	}
	return []struct {
		name string
		s    [][]float64
	}{
		{"-2dB", noisyStreams(r, streams, -2)},
		{"0.5dB", noisyStreams(r, streams, 0.5)},
		{"railed", railed},
		{"punctured-head", puncturedHead(streams)},
	}
}

// TestDecodeDigests pins the exact decoder outputs — bits, iterations,
// verdict and final extrinsics — over K ∈ {40, 1056, 6144} × four inputs ×
// {no check, CRC24B check} at 4 iterations. The digests were captured on the
// constituent schedule that stepped the whole forward recursion before the
// whole backward one, and must hold on the kernels and on the scalar stepper
// alike: unlike the kernel-vs-scalar differential, this also catches a
// change that moves both steppers together.
func TestDecodeDigests(t *testing.T) {
	want := map[string]uint64{
		"K=40/-2dB/nil":             0x8c463408b1590e49,
		"K=40/-2dB/crc":             0x24dd310b25570baa,
		"K=40/0.5dB/nil":            0xa12402ad5e07ccef,
		"K=40/0.5dB/crc":            0x8e956dc689f0593a,
		"K=40/railed/nil":           0x2ef3260aaccec69b,
		"K=40/railed/crc":           0x8ad31b4e7627b540,
		"K=40/punctured-head/nil":   0x465e11d59a28be29,
		"K=40/punctured-head/crc":   0x82fd490e4ca3a289,
		"K=1056/-2dB/nil":           0xf419b65b2b9ef5e4,
		"K=1056/-2dB/crc":           0xf27fd12f1506b2a9,
		"K=1056/0.5dB/nil":          0xc3ed533b2a6ad874,
		"K=1056/0.5dB/crc":          0x2d60ae8e53cb345d,
		"K=1056/railed/nil":         0x98e2d7714d4cd9fb,
		"K=1056/railed/crc":         0xac207796eb74c1f8,
		"K=1056/punctured-head/nil": 0x8246b83ebc2fc456,
		"K=1056/punctured-head/crc": 0x28fad4d677e2c8b8,
		"K=6144/-2dB/nil":           0x23268918896ffd49,
		"K=6144/-2dB/crc":           0x9461ca9e829a02e2,
		"K=6144/0.5dB/nil":          0x6a8626b618e0bde8,
		"K=6144/0.5dB/crc":          0x57371e1a688ac62c,
		"K=6144/railed/nil":         0x4566879151e5c942,
		"K=6144/railed/crc":         0x6398d268279cb4b9,
		"K=6144/punctured-head/nil": 0xe20de80890ad7ed7,
		"K=6144/punctured-head/crc": 0xc9f9d107d9273a2a,
	}
	eachDecodePath(t, func(t *testing.T) {
		for _, k := range []int{40, 1056, 6144} {
			for _, in := range digestInputs(k) {
				for _, chk := range []struct {
					name string
					f    func([]byte) bool
				}{{"nil", nil}, {"crc", bits.CheckCRC24B}} {
					d, err := NewDecoder(k)
					if err != nil {
						t.Fatal(err)
					}
					d.MaxIterations = 4
					d.PrecheckRaw = false
					res := d.Decode(in.s[0], in.s[1], in.s[2], chk.f)
					key := fmt.Sprintf("K=%d/%s/%s", k, in.name, chk.name)
					if got := decodeDigest(d, res); got != want[key] {
						t.Errorf("%s: digest %#x (it=%d ok=%v), pinned %#x", key, got, res.Iterations, res.OK, want[key])
					}
				}
			}
		}
	})
}
