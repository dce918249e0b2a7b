package sched

import (
	"testing"

	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

// jitteryTransport exposes early arrivals: the sampler draws below the
// expectation half of the time, so migrated batches planned against the
// expected arrival can be preempted by real ones.
type jitteryTransport struct {
	mean, spread float64
}

func (j jitteryTransport) Sample(r *stats.RNG) float64 {
	return j.mean + (r.Float64()-0.5)*2*j.spread
}

func jitteryWorkload(t testing.TB, subframes int, seed uint64) *Workload {
	t.Helper()
	w, err := BuildWorkload(WorkloadConfig{
		Basestations: 4, Subframes: subframes, Antennas: 2, Bandwidth: lte.BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: model.PaperGPP, Jitter: model.DefaultJitter, IterLaw: model.DefaultIterationLaw,
		Profiles: trace.DefaultProfiles, FixedMCS: -1,
		Transport:      jitteryTransport{mean: 550, spread: 120},
		ExpectedRTT2US: 550,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRTOPEXPreemptionUnderJitteryTransport(t *testing.T) {
	// Early actual arrivals must preempt hosted batches and trigger the
	// recovery path — the inaccurate-migration-decision scenario of §3.2.
	w := jitteryWorkload(t, 8000, 1)
	r, err := Run(w, NewRTOPEX(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions == 0 {
		t.Fatal("no preemptions despite transport jitter")
	}
	if r.Recoveries == 0 {
		t.Fatal("no recoveries despite preemptions")
	}
	if r.Jobs() != 32000 {
		t.Fatalf("jobs %d", r.Jobs())
	}
}

func TestRTOPEXStillWinsUnderJitteryTransport(t *testing.T) {
	w := jitteryWorkload(t, 8000, 2)
	p, _ := Run(w, NewPartitioned(2), 8)
	r, _ := Run(w, NewRTOPEX(2), 8)
	if r.MissRate() >= p.MissRate() {
		t.Fatalf("RT-OPEX %v not below partitioned %v with jittery transport",
			r.MissRate(), p.MissRate())
	}
}

func TestRTOPEXNoWaitVariant(t *testing.T) {
	// NoWait forces recomputation instead of short waits; it must still be
	// correct (all jobs accounted) and not better than the default.
	w := testWorkload(t, 5000, 550, 3)
	def, _ := Run(w, NewRTOPEX(2), 8)
	nw := NewRTOPEX(2)
	nw.NoWait = true
	m, err := Run(w, nw, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs() != def.Jobs() {
		t.Fatal("jobs differ")
	}
	if m.Misses() < def.Misses() {
		t.Fatalf("no-wait (%d misses) beat wait-if-cheaper (%d)", m.Misses(), def.Misses())
	}
	if m.Recoveries <= def.Recoveries {
		t.Fatalf("no-wait should recover more often: %d vs %d", m.Recoveries, def.Recoveries)
	}
}

func TestRTOPEXPerSubtaskDelta(t *testing.T) {
	// The listing-literal δ-per-subtask accounting migrates fewer subtasks
	// into the same windows.
	w := testWorkload(t, 5000, 550, 4)
	def, _ := Run(w, NewRTOPEX(2), 8)
	ps := NewRTOPEX(2)
	ps.PerSubtaskDelta = true
	m, _ := Run(w, ps, 8)
	if m.FFTSubtasksMigrated >= def.FFTSubtasksMigrated {
		t.Fatalf("per-subtask δ migrated %d FFT subtasks, default %d",
			m.FFTSubtasksMigrated, def.FFTSubtasksMigrated)
	}
	// It must remain a functioning scheduler.
	if m.MissRate() > 10*def.MissRate()+1e-3 {
		t.Fatalf("per-subtask δ miss rate %v implausibly high vs %v", m.MissRate(), def.MissRate())
	}
}

func TestRTOPEXGreedyNotBetter(t *testing.T) {
	w := testWorkload(t, 5000, 550, 5)
	def, _ := Run(w, NewRTOPEX(2), 8)
	g := NewRTOPEX(2)
	g.GreedyAll = true
	m, _ := Run(w, g, 8)
	if m.Jobs() != def.Jobs() {
		t.Fatal("jobs differ")
	}
	// Greedy over-offloads; it must not beat the balanced default.
	if m.Misses() < def.Misses() {
		t.Fatalf("greedy (%d) beat balanced (%d)", m.Misses(), def.Misses())
	}
}

func TestRTOPEXMigrationDisabledEqualsPartitioned(t *testing.T) {
	// With both task types disabled, RT-OPEX is its underlying partitioned
	// schedule: identical outcome counts on the same workload.
	w := testWorkload(t, 4000, 550, 6)
	p, _ := Run(w, NewPartitioned(2), 8)
	r := NewRTOPEX(2)
	r.MigrateFFT = false
	r.MigrateDecode = false
	m, _ := Run(w, r, 8)
	// Drop granularity differs slightly (partitioned checks slack per
	// decode iteration; RT-OPEX checks the planned decode lump), so allow
	// a hair of divergence but no systematic gap.
	if diff := m.Misses() - p.Misses(); diff < -3 || diff > 3 {
		t.Fatalf("disabled RT-OPEX missed %d, partitioned %d", m.Misses(), p.Misses())
	}
	if m.MigrationBatches != 0 || m.FFTSubtasksMigrated != 0 || m.DecodeSubtasksMigrated != 0 {
		t.Fatal("migrations occurred while disabled")
	}
}

func TestRTOPEXDecodeOnlyCarriesMostGain(t *testing.T) {
	// The decode task dominates Trxproc, so decode-only migration should
	// recover most of RT-OPEX's advantage while FFT-only recovers little.
	w := testWorkload(t, 8000, 600, 7)
	p, _ := Run(w, NewPartitioned(2), 8)
	full, _ := Run(w, NewRTOPEX(2), 8)
	dec := NewRTOPEX(2)
	dec.MigrateFFT = false
	donly, _ := Run(w, dec, 8)
	fft := NewRTOPEX(2)
	fft.MigrateDecode = false
	fonly, _ := Run(w, fft, 8)

	gain := func(m *Metrics) float64 {
		return float64(p.Misses() - m.Misses())
	}
	if gain(full) <= 0 {
		t.Skip("no headroom at this seed")
	}
	if gain(donly) < 0.7*gain(full) {
		t.Fatalf("decode-only gain %v < 70%% of full gain %v", gain(donly), gain(full))
	}
	if gain(fonly) > gain(donly) {
		t.Fatalf("fft-only gain %v exceeds decode-only %v", gain(fonly), gain(donly))
	}
}

func TestRTOPEXDeltaSweepMonotoneMigration(t *testing.T) {
	w := testWorkload(t, 3000, 600, 8)
	prevMigrated := 1 << 30
	for _, delta := range []float64{0, 20, 80, 320} {
		r := NewRTOPEX(2)
		r.DeltaUS = delta
		m, err := Run(w, r, 8)
		if err != nil {
			t.Fatal(err)
		}
		total := m.FFTSubtasksMigrated + m.DecodeSubtasksMigrated
		if total > prevMigrated {
			t.Fatalf("migrated subtasks rose from %d to %d as δ grew to %v",
				prevMigrated, total, delta)
		}
		prevMigrated = total
	}
}

func TestRTOPEXSingleCorePerBS(t *testing.T) {
	// ⌈Tmax⌉ = 1 leaves each basestation a single core; migration targets
	// are other basestations' cores. The scheduler must stay correct.
	w := testWorkload(t, 3000, 450, 9)
	r, err := Run(w, NewRTOPEX(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs() != 12000 {
		t.Fatalf("jobs %d", r.Jobs())
	}
	p, _ := Run(w, NewPartitioned(1), 4)
	if r.Misses() > p.Misses() {
		t.Fatalf("RT-OPEX (%d) worse than partitioned (%d) at 1 core/BS", r.Misses(), p.Misses())
	}
}

func TestRTOPEXInsufficientCores(t *testing.T) {
	w := testWorkload(t, 500, 500, 10)
	m, err := Run(w, NewRTOPEX(2), 4) // needs 8
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs() != 2000 {
		t.Fatalf("jobs %d", m.Jobs())
	}
	if m.Misses() < 900 {
		t.Fatalf("expected ~half dropped, got %d", m.Misses())
	}
}

func TestAlgorithm1NeverLeavesZeroLocal(t *testing.T) {
	// Whatever the windows, at least one subtask must stay local (the
	// processing thread combines results).
	r := stats.NewRNG(11)
	for trial := 0; trial < 2000; trial++ {
		p := 2 + r.Intn(27)
		tp := 1 + r.Float64()*250
		free := make([]float64, 1+r.Intn(7))
		for i := range free {
			free[i] = r.Float64() * 3000
		}
		greedy := r.Intn(2) == 0
		counts := Algorithm1(p, tp, 20, false, greedy, free)
		total := 0
		for _, n := range counts {
			total += n
		}
		if total >= p {
			t.Fatalf("all %d subtasks migrated (greedy=%v)", p, greedy)
		}
	}
}

func TestPredictedPreemptionAccountsInFlight(t *testing.T) {
	// Regression test for the in-flight blindness bug: a subframe
	// generated before `now` but still in transit must bound the window.
	r := NewRTOPEX(2)
	env := &Env{ExpectedRTT2: 400, SubframesPerBS: 100}
	r.env = env
	k := &rcore{id: 0, bs: 0, slot: 0}
	// At t = 2067 µs, core 0's subframe idx 2 (gen 2000) is in flight and
	// expected at 2400 — not at the next tick 4000.
	if got := r.predictedNextPreemption(k, 2067); got != 2400 {
		t.Fatalf("predicted %v, want 2400 (in-flight subframe)", got)
	}
	// After it arrives, the next one is idx 4 at 4400.
	if got := r.predictedNextPreemption(k, 2500); got != 4400 {
		t.Fatalf("predicted %v, want 4400", got)
	}
	// Odd-slot core: first arrival at 1000 + 400.
	k1 := &rcore{id: 1, bs: 0, slot: 1}
	if got := r.predictedNextPreemption(k1, 0); got != 1400 {
		t.Fatalf("predicted %v, want 1400", got)
	}
	// Past the end of the trace: +Inf.
	env.SubframesPerBS = 3
	if got := r.predictedNextPreemption(k, 2500); !isInf(got) {
		t.Fatalf("predicted %v past trace end, want +Inf", got)
	}
}

func isInf(x float64) bool { return x > 1e30 }

func TestFixedMCSHighLoadSweep(t *testing.T) {
	// At fixed MCS 27 and RTT/2 = 500, partitioned must exceed the 1e-2
	// threshold while RT-OPEX stays under it (Fig. 17's +15% claim).
	w, err := BuildWorkload(WorkloadConfig{
		Basestations: 4, Subframes: 8000, Antennas: 2, Bandwidth: lte.BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: model.PaperGPP, Jitter: model.DefaultJitter, IterLaw: model.DefaultIterationLaw,
		FixedMCS:  27,
		Transport: transport.FixedPath{OneWay: 500}, ExpectedRTT2US: 500, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Run(w, NewPartitioned(2), 8)
	r, _ := Run(w, NewRTOPEX(2), 8)
	if p.MissRate() < 1e-2 {
		t.Fatalf("partitioned at MCS 27: %v, want > 1e-2", p.MissRate())
	}
	if r.MissRate() > 1e-2 {
		t.Fatalf("rt-opex at MCS 27: %v, want < 1e-2", r.MissRate())
	}
}
