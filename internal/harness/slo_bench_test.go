package harness

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"rtopex/internal/obs"
	"rtopex/internal/sched"
)

// benchHistory builds a fleet-scale registry (the series mix a livebench or
// sweep worker actually exposes: labeled counters, gauges, histograms — the
// store keeps only the counters) plus a TSDB and SLO engine over it, with a
// deterministic advancing clock.
func benchHistory(b *testing.B) (*obs.Registry, *obs.Scraper, func()) {
	b.Helper()
	reg := obs.NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Counter("rtopex_bench_events_total", obs.L("core", fmt.Sprint(i))).Add(int64(i))
	}
	reg.Counter("rtopex_live_subframes_total")
	reg.Counter("rtopex_live_missed_total")
	for i := 0; i < 8; i++ {
		reg.Gauge("rtopex_bench_load", obs.L("core", fmt.Sprint(i))).Set(float64(i))
	}
	for i := 0; i < 8; i++ {
		h := reg.Histogram("rtopex_bench_latency_us", obs.L("stage", fmt.Sprint(i)))
		for j := 0; j < 64; j++ {
			h.Observe(float64(j%17) * 3.5)
		}
	}
	// 60 s retention keeps the rings small enough that a short warm-up
	// reaches steady state (full rings, eviction on every step) — without
	// it the timed region measures lazy ring growth, which is noisy.
	db := obs.NewTSDB(obs.TSDBConfig{Step: time.Second, Retention: time.Minute})
	o, err := obs.ParseObjective("miss_rate: rtopex_live_missed_total / rtopex_live_subframes_total <= 0.1% over 1m")
	if err != nil {
		b.Fatal(err)
	}
	slo := obs.NewSLOEngine(db, o)
	now := time.UnixMilli(1_700_000_000_000)
	scraper := obs.NewScraper(obs.ScraperConfig{
		DB:       db,
		Snapshot: reg.Snapshot,
		SLO:      slo,
		Now: func() time.Time {
			return now
		},
	})
	advance := func() { now = now.Add(time.Second) }
	return reg, scraper, advance
}

// BenchmarkScrapeEvaluate is the history plane's pure cost: one scraper
// tick — registry snapshot, TSDB observe across every counter, and a full
// SLO evaluation (two burn windows) — over a fleet-scale registry, under a
// deterministic clock. ns/op is the per-step cost a daemon pays at its
// -history-step cadence; tracked in BENCH_sweep.json.
func BenchmarkScrapeEvaluate(b *testing.B) {
	reg, scraper, advance := benchHistory(b)
	subframes := reg.Counter("rtopex_live_subframes_total")
	missed := reg.Counter("rtopex_live_missed_total")
	tick := func(i int) {
		subframes.Add(1000)
		missed.Add(int64(i % 3))
		scraper.Tick()
		advance()
	}
	// Warm past ring capacity so the timed region measures steady state
	// (full rings, one eviction per step), not lazy ring growth.
	for i := 0; i < 70; i++ {
		tick(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i)
	}
}

// BenchmarkScrapeEvaluateOverhead is the history plane's overhead gate:
// each iteration interleaves a registry-observed traced run with no history
// (timer stopped) and the identical run plus scrape-and-evaluate ticks
// (timer running). One tick against a ~15ms run is a cadence ~60x denser
// than the production 1 Hz step, so the gate bounds a conservative
// overestimate. The reported history/disabled ratio is a
// median over same-process pairs (immune to machine drift between runs);
// bench-check holds it to ±5% of its committed ~1.0x baseline — the
// "history is nearly free next to the workload" contract.
func BenchmarkScrapeEvaluateOverhead(b *testing.B) {
	const ticksPerRun = 1
	w := benchWorkload(b, 400)
	reg, scraper, advance := benchHistory(b)
	disabled := make([]time.Duration, 0, b.N)
	withHist := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// StartTimer below reads memstats right before the history run; read
		// them here too so both sides of the pair start from the same
		// allocator state.
		runtime.ReadMemStats(&ms)
		t0 := time.Now()
		if _, err := TracedRunObserved(w, sched.NewRTOPEX(2), 8, 0, reg, nil); err != nil {
			b.Fatal(err)
		}
		disabled = append(disabled, time.Since(t0))
		b.StartTimer()
		t0 = time.Now()
		if _, err := TracedRunObserved(w, sched.NewRTOPEX(2), 8, 0, reg, nil); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < ticksPerRun; k++ {
			scraper.Tick()
			advance()
		}
		withHist = append(withHist, time.Since(t0))
	}
	b.StopTimer()
	ratios := make([]float64, 0, len(withHist))
	for i := range withHist {
		if disabled[i] > 0 {
			ratios = append(ratios, float64(withHist[i])/float64(disabled[i]))
		}
	}
	if len(ratios) > 0 {
		slices.Sort(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "history/disabled")
	}
}
