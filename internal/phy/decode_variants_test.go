package phy

import (
	"testing"

	"rtopex/internal/stats"
)

// TestDescrambleSigns pins the ±1 descrambling representation against the
// generating sequence: an LLR passes through unchanged where the scrambler
// bit is 0 and flips sign where it is 1.
func TestDescrambleSigns(t *testing.T) {
	cfg := testConfig(13, 1)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	ones, flips := 0, 0
	for i, s := range rx.descramb {
		if s != 1 && s != -1 {
			t.Fatalf("descramb[%d] = %v, want ±1", i, s)
		}
		v := r.NormFloat64()
		if got := v * s; (s == -1) != (got == -v) && v != 0 {
			t.Fatalf("descramb[%d]: %v·%v = %v", i, v, s, got)
		}
		if s == -1 {
			ones++
		} else {
			flips++
		}
	}
	// The Gold sequence is balanced; both signs must actually occur.
	if ones == 0 || flips == 0 {
		t.Fatalf("degenerate scrambling signs: %d minus, %d plus", ones, flips)
	}
}
