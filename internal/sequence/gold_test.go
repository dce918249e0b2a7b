package sequence

import (
	"testing"
	"testing/quick"
)

func TestGoldLength(t *testing.T) {
	for _, n := range []int{0, 1, 100, 10000} {
		c := Gold(0x1234, n)
		if n <= 0 && c != nil {
			t.Fatalf("Gold(%d) returned non-nil", n)
		}
		if n > 0 && len(c) != n {
			t.Fatalf("Gold length = %d, want %d", len(c), n)
		}
	}
}

func TestGoldBitsAreBinary(t *testing.T) {
	for _, b := range Gold(0xACE1, 5000) {
		if b > 1 {
			t.Fatalf("non-binary output %d", b)
		}
	}
}

func TestGoldBalance(t *testing.T) {
	// A PN sequence should be near-balanced over long windows.
	c := Gold(0x7F3, 100000)
	ones := 0
	for _, b := range c {
		ones += int(b)
	}
	if ones < 49000 || ones > 51000 {
		t.Fatalf("ones = %d / 100000, not balanced", ones)
	}
}

func TestGoldDistinctInits(t *testing.T) {
	a := Gold(1, 1000)
	b := Gold(2, 1000)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff < 300 {
		t.Fatalf("sequences for distinct inits differ in only %d/1000 bits", diff)
	}
}

func TestGoldPrefixConsistency(t *testing.T) {
	// Generating a longer sequence must not change the earlier bits.
	short := Gold(0xBEEF, 100)
	long := Gold(0xBEEF, 1000)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix mismatch at %d", i)
		}
	}
}

func TestGoldLowAutocorrelation(t *testing.T) {
	c := Gold(0x5A5A, 20000)
	for _, lag := range []int{1, 7, 31, 100} {
		agree := 0
		n := len(c) - lag
		for i := 0; i < n; i++ {
			if c[i] == c[i+lag] {
				agree++
			}
		}
		frac := float64(agree) / float64(n)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("autocorrelation at lag %d: agreement %.3f", lag, frac)
		}
	}
}

func TestPUSCHInitFields(t *testing.T) {
	got := PUSCHInit(0x003D, 0, 0, 1)
	want := uint32(0x003D)<<14 + 1
	if got != want {
		t.Fatalf("PUSCHInit = %#x, want %#x", got, want)
	}
	// Subframe advances the ⌊ns/2⌋ field by 1 per subframe.
	if PUSCHInit(1, 0, 3, 0) != uint32(1)<<14+3<<9 {
		t.Fatal("subframe field wrong")
	}
	// Codeword q sets bit 13.
	if PUSCHInit(0, 1, 0, 0) != 1<<13 {
		t.Fatal("codeword field wrong")
	}
}

func TestScramblerInvolution(t *testing.T) {
	f := func(seed uint32, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]byte, len(raw))
		for i := range raw {
			data[i] = raw[i] & 1
		}
		orig := append([]byte(nil), data...)
		s := NewScrambler(seed, len(data))
		s.Apply(data)
		s.Apply(data)
		for i := range data {
			if data[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScramblerPanicsOnOverrun(t *testing.T) {
	s := NewScrambler(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when data exceeds sequence")
		}
	}()
	s.Apply(make([]byte, 5))
}

func BenchmarkGold10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Gold(0x1234, 10000)
	}
}
