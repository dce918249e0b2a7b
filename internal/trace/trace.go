// Package trace generates and stores cellular load traces.
//
// Substitution note (see DESIGN.md): the paper logs RF energy of four live
// LTE downlink towers (Band 13/17) with USRPs and normalizes it to a per-
// millisecond load. Those captures are not available, so this package
// synthesizes per-subframe load processes with the two properties the
// schedulers actually consume: strong subframe-to-subframe variation
// (Fig. 1) and diverse per-basestation marginal distributions (Fig. 14).
// The generator is a bounded AR(1) process with a superimposed burst state.
package trace

import (
	"math"

	"rtopex/internal/lte"
	"rtopex/internal/stats"
)

// Trace is a normalized load sequence, one value in [0,1] per 1 ms subframe.
type Trace []float64

// Profile parameterizes one basestation's load process.
type Profile struct {
	Name  string
	Base  float64 // long-run mean load outside bursts
	Rho   float64 // AR(1) memory in [0,1); low values give fast variation
	Sigma float64 // innovation standard deviation
	// Bursts model user arrivals that pin the cell near full buffer.
	BurstProb float64 // per-subframe probability of entering a burst
	BurstMean float64 // mean burst duration in subframes (geometric)
	BurstLoad float64 // load level during a burst
}

// DefaultProfiles are four basestations with distinct load distributions,
// shaped to span Fig. 14's CDF diversity: a lightly loaded cell, two
// mid-load cells with different burstiness, and a heavily loaded cell.
var DefaultProfiles = []Profile{
	{Name: "BS1", Base: 0.25, Rho: 0.35, Sigma: 0.12, BurstProb: 0.01, BurstMean: 12, BurstLoad: 0.85},
	{Name: "BS2", Base: 0.45, Rho: 0.40, Sigma: 0.15, BurstProb: 0.02, BurstMean: 20, BurstLoad: 0.95},
	{Name: "BS3", Base: 0.60, Rho: 0.30, Sigma: 0.18, BurstProb: 0.03, BurstMean: 15, BurstLoad: 1.0},
	{Name: "BS4", Base: 0.75, Rho: 0.45, Sigma: 0.15, BurstProb: 0.05, BurstMean: 25, BurstLoad: 1.0},
}

// Generator produces one basestation's load sequence.
type Generator struct {
	prof      Profile
	rng       *stats.RNG
	state     float64
	burstLeft int
}

// NewGenerator seeds a generator for profile p.
func NewGenerator(p Profile, seed uint64) *Generator {
	return &Generator{prof: p, rng: stats.NewRNG(seed), state: p.Base}
}

// Next returns the load of the next subframe.
func (g *Generator) Next() float64 {
	p := g.prof
	if g.burstLeft > 0 {
		g.burstLeft--
	} else if p.BurstProb > 0 && g.rng.Float64() < p.BurstProb {
		// Geometric duration with the configured mean.
		g.burstLeft = 1 + int(g.rng.ExpFloat64()*math.Max(p.BurstMean-1, 0))
	}
	g.state = p.Rho*g.state + (1-p.Rho)*p.Base + p.Sigma*g.rng.NormFloat64()
	load := g.state
	if g.burstLeft > 0 {
		// Bursts dominate the AR level but keep millisecond texture.
		load = p.BurstLoad + 0.1*p.Sigma*g.rng.NormFloat64()
	}
	return clamp01(load)
}

// Generate produces n subframes of load.
func (g *Generator) Generate(n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		tr[i] = g.Next()
	}
	return tr
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// MCS quantizes a normalized load to an MCS index 0..MaxMCS: this is the
// paper's emulation of traffic load through MCS variation (§4.2).
func MCS(load float64) int {
	m := int(math.Round(clamp01(load) * float64(lte.MaxMCS)))
	if m > lte.MaxMCS {
		m = lte.MaxMCS
	}
	return m
}

// Mean returns the average load.
func (t Trace) Mean() float64 {
	if len(t) == 0 {
		return 0
	}
	var s float64
	for _, v := range t {
		s += v
	}
	return s / float64(len(t))
}

// StepVariation returns the mean absolute load change between consecutive
// subframes — the Fig. 1 "variation" the schedulers must absorb.
func (t Trace) StepVariation() float64 {
	if len(t) < 2 {
		return 0
	}
	var s float64
	for i := 1; i < len(t); i++ {
		s += math.Abs(t[i] - t[i-1])
	}
	return s / float64(len(t)-1)
}
