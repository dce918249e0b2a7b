package trace

import (
	"math"
	"testing"

	"rtopex/internal/lte"
	"rtopex/internal/stats"
)

func TestGeneratorBounds(t *testing.T) {
	for _, p := range DefaultProfiles {
		g := NewGenerator(p, 1)
		for i := 0; i < 50000; i++ {
			l := g.Next()
			if l < 0 || l > 1 {
				t.Fatalf("%s: load %v outside [0,1]", p.Name, l)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(DefaultProfiles[0], 7).Generate(1000)
	b := NewGenerator(DefaultProfiles[0], 7).Generate(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestProfilesHaveDistinctDistributions(t *testing.T) {
	// Fig. 14 shows clearly separated CDFs; the default profiles must keep
	// increasing mean loads with meaningful gaps.
	var means []float64
	for i, p := range DefaultProfiles {
		tr := NewGenerator(p, uint64(i)).Generate(30000)
		means = append(means, tr.Mean())
	}
	for i := 1; i < len(means); i++ {
		if means[i] <= means[i-1]+0.05 {
			t.Fatalf("profile %d mean %v not clearly above profile %d mean %v",
				i, means[i], i-1, means[i-1])
		}
	}
}

func TestMillisecondVariation(t *testing.T) {
	// Fig. 1: consecutive subframes differ substantially. Require mean
	// absolute step of at least a few percent of full scale.
	for i, p := range DefaultProfiles {
		tr := NewGenerator(p, uint64(10+i)).Generate(30000)
		if v := tr.StepVariation(); v < 0.03 {
			t.Fatalf("%s: step variation %v too smooth for Fig. 1", p.Name, v)
		}
	}
}

func TestBurstsReachHighLoad(t *testing.T) {
	tr := NewGenerator(DefaultProfiles[3], 20).Generate(30000)
	high := 0
	for _, l := range tr {
		if l > 0.9 {
			high++
		}
	}
	if high < 1000 {
		t.Fatalf("heavy profile reached >0.9 load only %d/30000 subframes", high)
	}
}

func TestMCSQuantization(t *testing.T) {
	if MCS(0) != 0 || MCS(1) != lte.MaxMCS {
		t.Fatal("MCS endpoints wrong")
	}
	if MCS(-0.5) != 0 || MCS(2) != lte.MaxMCS {
		t.Fatal("MCS clamp wrong")
	}
	if MCS(0.5) != 14 && MCS(0.5) != 13 {
		t.Fatalf("MCS(0.5) = %d", MCS(0.5))
	}
	// Monotone in load.
	prev := -1
	for l := 0.0; l <= 1.0; l += 0.01 {
		m := MCS(l)
		if m < prev {
			t.Fatal("MCS not monotone in load")
		}
		prev = m
	}
}

func TestTraceStats(t *testing.T) {
	tr := Trace{0.2, 0.4, 0.6}
	if math.Abs(tr.Mean()-0.4) > 1e-12 {
		t.Fatalf("mean %v", tr.Mean())
	}
	if math.Abs(tr.StepVariation()-0.2) > 1e-12 {
		t.Fatalf("step variation %v", tr.StepVariation())
	}
	if (Trace{}).Mean() != 0 || (Trace{0.1}).StepVariation() != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestLoadCDFShape(t *testing.T) {
	// The lightest profile should concentrate mass at low load; the
	// heaviest at high load (Fig. 14's qualitative shape).
	light := NewGenerator(DefaultProfiles[0], 40).Generate(30000)
	heavy := NewGenerator(DefaultProfiles[3], 41).Generate(30000)
	lc := stats.NewCDF([]float64(light))
	hc := stats.NewCDF([]float64(heavy))
	if lc.At(0.5) < 0.7 {
		t.Fatalf("light profile below 0.5 load only %v of the time", lc.At(0.5))
	}
	if hc.At(0.5) > 0.45 {
		t.Fatalf("heavy profile below 0.5 load %v of the time", hc.At(0.5))
	}
}
