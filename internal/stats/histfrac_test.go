package stats

import (
	"math"
	"testing"
)

func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {9, 2.262}, {30, 2.042},
		{35, 2.021}, {50, 2.000}, {100, 1.980}, {1000, 1.960},
	}
	for _, c := range cases {
		if got := TCrit95(c.df); got != c.want {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsNaN(TCrit95(0)) {
		t.Error("TCrit95(0) should be NaN")
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{2, 4, 6})
	if mean != 4 {
		t.Fatalf("mean = %v, want 4", mean)
	}
	// s = 2, n = 3, t(2) = 4.303 → half = 4.303·2/√3.
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(half-want) > 1e-9 {
		t.Fatalf("half = %v, want %v", half, want)
	}

	if m, h := MeanCI95([]float64{7}); m != 7 || h != 0 {
		t.Fatalf("single sample: (%v, %v), want (7, 0)", m, h)
	}
	if m, h := MeanCI95(nil); !math.IsNaN(m) || h != 0 {
		t.Fatalf("empty: (%v, %v), want (NaN, 0)", m, h)
	}
}
