package bits

import (
	"testing"
	"testing/quick"

	"rtopex/internal/stats"
)

// randomPayload returns n random 0/1 bits from a seeded generator.
func randomPayload(r *stats.RNG, n int) []byte {
	p := make([]byte, n)
	RandomBits(p, r.Uint64)
	return p
}

func TestCRC24AKnownVector(t *testing.T) {
	// All-zero payload must give zero CRC (linear code property).
	if got := CRC24A(make([]byte, 40)); got != 0 {
		t.Fatalf("CRC24A(zeros) = %#x, want 0", got)
	}
	// A single 1 bit at the end of a 24-bit message equals the polynomial
	// remainder of x^24, which is the generator poly without the x^24 term.
	msg := make([]byte, 24)
	msg[23] = 1
	if got := CRC24A(msg); got != 0x864CFB {
		t.Fatalf("CRC24A(x^24 impulse) = %#x, want %#x", got, 0x864CFB)
	}
	if got := CRC24B(msg); got != 0x800063 {
		t.Fatalf("CRC24B(x^24 impulse) = %#x, want %#x", got, 0x800063)
	}
}

func TestAppendAndCheckRoundTrip(t *testing.T) {
	r := stats.NewRNG(1)
	for _, n := range []int{1, 7, 40, 100, 1000, 6144} {
		p := randomPayload(r, n)
		withA := AppendCRC(append([]byte(nil), p...), CRC24A(p), 24)
		if !CheckCRC24A(withA) {
			t.Fatalf("CRC24A round-trip failed for n=%d", n)
		}
		withB := AppendCRC(append([]byte(nil), p...), CRC24B(p), 24)
		if !CheckCRC24B(withB) {
			t.Fatalf("CRC24B round-trip failed for n=%d", n)
		}
	}
}

func TestCheckRejectsShortInput(t *testing.T) {
	if CheckCRC24A(make([]byte, 24)) {
		t.Error("24-bit input (no payload) accepted")
	}
	if CheckCRC24B(nil) {
		t.Error("nil input accepted")
	}
}

func TestCRCDetectsAllSingleBitErrors(t *testing.T) {
	r := stats.NewRNG(2)
	p := randomPayload(r, 120)
	withCRC := AppendCRC(append([]byte(nil), p...), CRC24A(p), 24)
	for i := range withCRC {
		withCRC[i] ^= 1
		if CheckCRC24A(withCRC) {
			t.Fatalf("single-bit error at %d undetected", i)
		}
		withCRC[i] ^= 1
	}
}

func TestCRCDetectsAllDoubleBitErrors(t *testing.T) {
	r := stats.NewRNG(3)
	p := randomPayload(r, 64)
	withCRC := AppendCRC(append([]byte(nil), p...), CRC24B(p), 24)
	for i := 0; i < len(withCRC); i++ {
		for j := i + 1; j < len(withCRC); j++ {
			withCRC[i] ^= 1
			withCRC[j] ^= 1
			if CheckCRC24B(withCRC) {
				t.Fatalf("double-bit error at (%d,%d) undetected", i, j)
			}
			withCRC[i] ^= 1
			withCRC[j] ^= 1
		}
	}
}

func TestCRCDetectsBurstErrors(t *testing.T) {
	// A CRC of width w detects all burst errors of length <= w.
	r := stats.NewRNG(4)
	p := randomPayload(r, 200)
	withCRC := AppendCRC(append([]byte(nil), p...), CRC24A(p), 24)
	for burst := 2; burst <= 24; burst++ {
		for trial := 0; trial < 20; trial++ {
			start := r.Intn(len(withCRC) - burst)
			// A burst has nonzero first and last bits.
			withCRC[start] ^= 1
			withCRC[start+burst-1] ^= 1
			for k := 1; k < burst-1; k++ {
				if r.Float64() < 0.5 {
					withCRC[start+k] ^= 1
				}
			}
			if CheckCRC24A(withCRC) {
				t.Fatalf("burst of length %d at %d undetected", burst, start)
			}
			// Restore by recomputing from the pristine payload copy.
			copy(withCRC, p)
			withCRC = AppendCRC(withCRC[:len(p)], CRC24A(p), 24)
		}
	}
}

func TestCRCLinearity(t *testing.T) {
	// CRC(a^b) == CRC(a)^CRC(b) for equal-length messages.
	r := stats.NewRNG(5)
	f := func(seed uint32) bool {
		rr := stats.NewRNG(uint64(seed) ^ r.Uint64())
		a := randomPayload(rr, 96)
		b := randomPayload(rr, 96)
		return CRC24A(XORBits(a, b)) == CRC24A(a)^CRC24A(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXORBitsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	XORBits([]byte{1}, []byte{1, 0})
}

func TestHammingDistance(t *testing.T) {
	if d := HammingDistance([]byte{1, 0, 1, 1}, []byte{1, 1, 1, 0}); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
}

func BenchmarkCRC24A6144(b *testing.B) {
	r := stats.NewRNG(6)
	p := randomPayload(r, 6144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CRC24A(p)
	}
}
