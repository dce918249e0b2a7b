//go:build !amd64.v3

// The exactness asserted here assumes the default GOAMD64=v1: from v3 on the
// compiler may fuse the scalar transform's multiply-adds, which the kernels
// (by design) never do, and the two paths would then round differently.

package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"rtopex/internal/stats"
)

// withKernels runs f with the kernel dispatch forced on or off.
func withKernels(on bool, f func()) {
	old := kernelsEnabled
	kernelsEnabled = on
	defer func() { kernelsEnabled = old }()
	f()
}

// sameBits compares two spectra part by part on their IEEE bit patterns;
// NaNs match any NaN (x86 and the compiler may pick different payloads).
func sameBits(a, b []complex128) (int, bool) {
	eq := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return math.Float64bits(x) == math.Float64bits(y)
	}
	for i := range a {
		if !eq(real(a[i]), real(b[i])) || !eq(imag(a[i]), imag(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// checkKernelsMatchScalar runs every entry point for len(in) on the input
// with the kernels off and on and requires identical bits. For a power of
// two those are the plan's: in-place Forward and Inverse, the gather entry
// ForwardFrom, and the inverse gather the dispatcher supports. For a
// 5-smooth length they are the mixed-radix ones: DFTFrom, DFTInto in place,
// and IDFTInto out of place and in place. Each buffer starts at element
// offset off of its allocation, so off = 1 gives slices that are 16- but
// not 32-byte aligned.
func checkKernelsMatchScalar(t *testing.T, in []complex128, off int) {
	t.Helper()
	n := len(in)
	src := append(make([]complex128, off, off+n), in...)[off:]
	type entry struct {
		name string
		run  func(dst []complex128)
	}
	var entries []entry
	if n&(n-1) == 0 {
		p := MustPlan(n)
		entries = []entry{
			{"Forward", func(dst []complex128) { copy(dst, src); p.Forward(dst) }},
			{"Inverse", func(dst []complex128) { copy(dst, src); p.Inverse(dst) }},
			{"ForwardFrom", func(dst []complex128) { p.ForwardFrom(dst, src) }},
			{"inverse gather", func(dst []complex128) { p.run(dst, src, true) }},
		}
	} else {
		work := make([]complex128, off+WorkLen(n))[off:]
		entries = []entry{
			{"DFTFrom", func(dst []complex128) { DFTFrom(dst, src) }},
			{"DFTInto in place", func(dst []complex128) { copy(dst, src); DFTInto(dst, dst, work) }},
			{"IDFTInto", func(dst []complex128) { IDFTInto(dst, src, work) }},
			{"IDFTInto in place", func(dst []complex128) { copy(dst, src); IDFTInto(dst, dst, work) }},
		}
	}
	for _, e := range entries {
		want := make([]complex128, off+n)[off:]
		got := make([]complex128, off+n)[off:]
		withKernels(false, func() { e.run(want) })
		withKernels(true, func() { e.run(got) })
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d off=%d %s: bin %d kernel %v scalar %v", n, off, e.name, i, got[i], want[i])
		}
		if i, ok := sameBits(src, in); !ok {
			t.Fatalf("n=%d off=%d %s: input element %d modified", n, off, e.name, i)
		}
	}
}

// kernelInputs are the input classes of TestKernelsMatchScalar: values where
// a reordered or fused operation, a skipped multiply by 1 or −i, or a
// flushed denormal would show in the bits.
func kernelInputs(n int) map[string][]complex128 {
	r := stats.NewRNG(uint64(n) + 77)
	fill := func(f func(i int) float64) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(f(2*i), f(2*i+1))
		}
		return x
	}
	negZero := math.Copysign(0, -1)
	return map[string][]complex128{
		"gaussian": fill(func(int) float64 { return r.NormFloat64() }),
		"signed zeros": fill(func(int) float64 {
			if r.Uint64()&1 == 1 {
				return negZero
			}
			return 0
		}),
		"sparse with signed zeros": fill(func(i int) float64 {
			switch r.Uint64() % 4 {
			case 0:
				return r.NormFloat64()
			case 1:
				return negZero
			}
			return 0
		}),
		"infinities": fill(func(i int) float64 {
			switch r.Uint64() % 8 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return r.NormFloat64()
		}),
		"denormals": fill(func(int) float64 {
			return math.Float64frombits(r.Uint64()&(1<<52-1)) * (1 - 2*float64(r.Uint64()&1))
		}),
		"huge": fill(func(int) float64 {
			return math.MaxFloat64 / 4 * (1 - 2*float64(r.Uint64()&1))
		}),
	}
}

func skipWithoutKernels(t testing.TB) {
	if !kernelsHW {
		t.Skip("no AVX2 on this host: the scalar transform is the only path")
	}
}

// TestKernelsMatchScalar is the bit-identity contract of the AVX2 kernels:
// on one Plan, every entry point gives the same bits with the kernels on and
// off, for every power of two the kernels and the small-size fallback cover.
func TestKernelsMatchScalar(t *testing.T) {
	skipWithoutKernels(t)
	for n := 2; n <= 4096; n <<= 1 {
		for name, in := range kernelInputs(n) {
			for off := 0; off <= 1; off++ {
				t.Run(fmt.Sprintf("n=%d/%s/off=%d", n, name, off), func(t *testing.T) {
					checkKernelsMatchScalar(t, in, off)
				})
			}
		}
	}
}

// TestSmoothKernelsMatchScalar is the same contract for the mixed-radix
// combine kernels, at every LTE PUSCH despreading size 12·nPRB with
// 5-smooth nPRB ≤ 100: odd and even sub-lengths, every radix as the leaf.
func TestSmoothKernelsMatchScalar(t *testing.T) {
	skipWithoutKernels(t)
	for nPRB := 1; nPRB <= 100; nPRB++ {
		if !isSmooth(nPRB) && nPRB != 1 {
			continue
		}
		n := 12 * nPRB
		for name, in := range kernelInputs(n) {
			for off := 0; off <= 1; off++ {
				t.Run(fmt.Sprintf("n=%d/%s/off=%d", n, name, off), func(t *testing.T) {
					checkKernelsMatchScalar(t, in, off)
				})
			}
		}
	}
}

// FuzzForwardKernelMatchesScalar exposes the same property to the fuzzer:
// the bytes are read as little-endian float64 pairs (any bit pattern,
// including NaNs and denormals); a 5-smooth count is used as is, any other
// is truncated to the largest power of two. The seed corpus runs under
// plain `go test`.
func FuzzForwardKernelMatchesScalar(f *testing.F) {
	skipWithoutKernels(f)
	encode := func(x []complex128) []byte {
		b := make([]byte, 0, 16*len(x))
		for _, v := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
		}
		return b
	}
	for _, n := range []int{8, 16, 32, 64, 128} {
		for _, in := range kernelInputs(n) {
			f.Add(encode(in), false)
		}
	}
	for _, n := range []int{12, 60, 600} {
		f.Add(encode(kernelInputs(n)["gaussian"]), n == 60)
	}
	f.Add(encode(kernelInputs(1024)["gaussian"]), true)
	f.Fuzz(func(t *testing.T, data []byte, odd bool) {
		n := min(len(data)/16, 4096)
		if n < 2 {
			return
		}
		for !isSmooth(n) {
			n &= n - 1
		}
		in := make([]complex128, n)
		for i := range in {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			in[i] = complex(re, im)
		}
		off := 0
		if odd {
			off = 1
		}
		checkKernelsMatchScalar(t, in, off)
	})
}

// TestIntoVariantsBitIdentical: DFTInto and IDFTInto give the same bits
// with the kernels on and off, out of place and with dst aliasing src, on
// the radix-2, mixed-radix and Bluestein paths; DFTInto also matches DFT.
func TestIntoVariantsBitIdentical(t *testing.T) {
	r := stats.NewRNG(31)
	for _, n := range []int{8, 64, 600, 300, 1024, 97} {
		x := randSignal(r, n)
		work := make([]complex128, WorkLen(n))
		run := func(on bool) (fwd, inv, aliased []complex128) {
			withKernels(on, func() {
				fwd = make([]complex128, n)
				DFTInto(fwd, x, work)
				inv = make([]complex128, n)
				IDFTInto(inv, x, work)
				aliased = append([]complex128(nil), x...)
				IDFTInto(aliased, aliased, work)
			})
			return fwd, inv, aliased
		}
		wantF, wantI, wantA := run(false)
		gotF, gotI, gotA := run(kernelsHW)
		for _, c := range []struct {
			name      string
			got, want []complex128
		}{
			{"DFTInto", gotF, wantF},
			{"DFTInto vs DFT", gotF, DFT(x)},
			{"IDFTInto", gotI, wantI},
			{"aliased IDFTInto", gotA, wantA},
			{"aliased vs distinct IDFTInto", gotA, gotI},
		} {
			if i, ok := sameBits(c.got, c.want); !ok {
				t.Fatalf("n=%d %s: bin %d = %v, want %v", n, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func BenchmarkForwardFrom1024(b *testing.B) {
	p := MustPlan(1024)
	src := randSignal(stats.NewRNG(9), 1024)
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardFrom(dst, src)
	}
}

func BenchmarkIDFTInto600(b *testing.B) {
	src := randSignal(stats.NewRNG(12), 600)
	dst := make([]complex128, 600)
	work := make([]complex128, WorkLen(600))
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("kernels=%v", on), func(b *testing.B) {
			withKernels(on && kernelsHW, func() {
				b.ReportAllocs()
				for b.Loop() {
					IDFTInto(dst, src, work)
				}
			})
		})
	}
}
