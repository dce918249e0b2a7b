package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtopex/internal/flight"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/obs"
	"rtopex/internal/sched"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
)

// uniformTransport mirrors the jittery-transport acceptance scenario:
// arrivals deviate from the schedulers' expectation in both directions, so
// hosted migration batches get preempted and recomputed.
type uniformTransport struct{ mean, spread float64 }

func (u uniformTransport) Sample(r *stats.RNG) float64 {
	return u.mean + (r.Float64()-0.5)*2*u.spread
}

func jitteryWorkload(t *testing.T, subframes int, seed uint64) *sched.Workload {
	t.Helper()
	w, err := sched.BuildWorkload(sched.WorkloadConfig{
		Basestations: 4, Subframes: subframes, Antennas: 2, Bandwidth: lte.BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: model.PaperGPP, Jitter: model.DefaultJitter, IterLaw: model.DefaultIterationLaw,
		Profiles: trace.DefaultProfiles, FixedMCS: -1,
		Transport:      uniformTransport{mean: 550, spread: 120},
		ExpectedRTT2US: 550,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTracedRunCapturesMigrationLifecycle is the acceptance scenario: a
// 1000-subframe RT-OPEX run under transport jitter must export a trace
// containing at least one preempted and one recomputed migration batch.
func TestTracedRunCapturesMigrationLifecycle(t *testing.T) {
	res, err := TracedRunObserved(jitteryWorkload(t, 1000, 7), sched.NewRTOPEX(2), 8, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Jobs() != 4000 {
		t.Fatalf("jobs %d", res.Metrics.Jobs())
	}
	counts := map[trace.Kind]int{}
	for _, e := range res.Log.Events {
		counts[e.Event]++
	}
	for _, k := range []trace.Kind{
		trace.EvArrive, trace.EvStart, trace.EvFinish,
		trace.EvMigPlan, trace.EvMigComplete, trace.EvMigPreempt, trace.EvMigRecompute,
	} {
		if counts[k] == 0 {
			t.Errorf("trace has no %s events", k)
		}
	}
	if res.Engine.Executed == 0 || res.Engine.Scheduled < res.Engine.Executed {
		t.Fatalf("engine stats implausible: %+v", res.Engine)
	}
	if res.Engine.EndTimeUS < 999*1000 {
		t.Fatalf("run ended at %v µs, want ≈1000 subframes worth", res.Engine.EndTimeUS)
	}
}

func TestTracedRunRingBounded(t *testing.T) {
	res, err := TracedRunObserved(jitteryWorkload(t, 200, 7), sched.NewRTOPEX(2), 8, 64, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log.Events) != 64 {
		t.Fatalf("retained %d events, want ring capacity 64", len(res.Log.Events))
	}
	if res.Log.Dropped == 0 {
		t.Fatal("bounded ring reported no overwritten events")
	}
}

// TestTracedRunDeterministicExports: two identical runs must produce
// byte-identical metrics and trace documents.
func TestTracedRunDeterministicExports(t *testing.T) {
	export := func() ([]byte, []byte) {
		res, err := TracedRunObserved(jitteryWorkload(t, 300, 5), sched.NewRTOPEX(2), 8, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var mbuf, tbuf bytes.Buffer
		if err := res.WriteMetricsJSON(&mbuf); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteTraceJSON(&tbuf); err != nil {
			t.Fatal(err)
		}
		return mbuf.Bytes(), tbuf.Bytes()
	}
	m1, t1 := export()
	m2, t2 := export()
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics exports differ between identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("trace exports differ between identical runs")
	}
}

// TestObservedRunAllocationCeiling holds a fully observed run — event ring,
// accountant, registry and flight recorder — near the bare run's zero
// allocations per subframe: building an event costs a store, not a string,
// and arrivals enter the engine without a closure per job.
func TestObservedRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const subframes, ceiling = 1000, 0.1
	w := jitteryWorkload(t, subframes, 1)
	reg := obs.NewRegistry()
	// A frozen rate-limiter clock spends the capture burst on the first
	// runs and refills nothing after, so how fast the host runs cannot put
	// a dossier capture (a registry snapshot) inside the measured runs.
	frozen := time.Now()
	rec := flight.New(flight.Config{Registry: reg, Now: func() time.Time { return frozen }})
	defer rec.Close()
	run := func() {
		if _, err := TracedRunObserved(w, sched.NewRTOPEX(2), 8, 4096, reg, rec); err != nil {
			t.Fatal(err)
		}
	}
	run()
	perSubframe := testing.AllocsPerRun(3, run) / (4 * subframes)
	if perSubframe > ceiling {
		t.Fatalf("%.2f allocations per subframe, ceiling %v", perSubframe, ceiling)
	}
	t.Logf("%.2f allocations per subframe", perSubframe)
}

// TestEngineStatsPinned holds each scheduler's engine counters on a fixed
// workload to the values captured before arrivals entered the engine as one
// pre-sorted lane: an arrival schedule that skips the hook, or an executor
// that schedules one event more or less per job, changes them while every
// digest of the run's outcome stays the same.
func TestEngineStatsPinned(t *testing.T) {
	w := jitteryWorkload(t, 1000, 5)
	for _, c := range []struct {
		mk   func() sched.Scheduler
		want EngineStats
	}{
		{func() sched.Scheduler { return sched.NewRTOPEX(2) }, EngineStats{33104, 33104, 1.0005200680573401e+06}},
		{func() sched.Scheduler { return sched.NewPartitioned(2) }, EngineStats{8000, 8000, 1.0007746302472348e+06}},
		{func() sched.Scheduler { return sched.NewGlobal() }, EngineStats{8000, 8000, 1.000810961972856e+06}},
	} {
		var got EngineStats
		s := c.mk()
		if _, err := sched.RunConfigured(w, s, sched.RunConfig{Cores: 8, EngineHook: &got}); err != nil {
			t.Fatal(err)
		}
		// Task times pass through libm, whose last-ulp rounding differs by
		// architecture; the capture is from amd64.
		if runtime.GOARCH == "amd64" && got != c.want {
			t.Errorf("%s: engine stats %+v, captured %+v", s.Name(), got, c.want)
		}
		if got.Scheduled != got.Executed {
			t.Errorf("%s: %d events scheduled, %d executed", s.Name(), got.Scheduled, got.Executed)
		}
	}
}

// TestEventLogReadBackIsByteIdentical: a full traced RT-OPEX run's event
// log, written, read back and written again, repeats byte for byte — the
// numeric details render in the first write exactly as the literal details
// read back render in the second.
func TestEventLogReadBackIsByteIdentical(t *testing.T) {
	res, err := TracedRunObserved(jitteryWorkload(t, 1000, 7), sched.NewRTOPEX(2), 8, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := res.Log.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadEventLog(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("event log changed on a write–read–write round trip")
	}
	for _, s := range []string{`"mig-wait","detail":"`, `"detail":"fft n=`, ` slow"`, ` preempted"`} {
		if !strings.Contains(first.String(), s) {
			t.Errorf("event log has no %q: the run does not exercise every numeric detail", s)
		}
	}
}

// TestObservedRunPublishesEngineCounters: each observed run adds its engine
// statistics to the registry's event counters and leaves the clock gauge
// at its final simulation time.
func TestObservedRunPublishesEngineCounters(t *testing.T) {
	reg := obs.NewRegistry()
	var scheduled, executed int64
	var end float64
	for _, seed := range []uint64{3, 4} {
		res, err := TracedRunObserved(jitteryWorkload(t, 200, seed), sched.NewRTOPEX(2), 8, 64, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		scheduled += res.Engine.Scheduled
		executed += res.Engine.Executed
		end = res.Engine.EndTimeUS
	}
	if got := reg.Counter("rtopex_engine_events_scheduled_total").Value(); got != scheduled || got == 0 {
		t.Errorf("scheduled counter = %d, want %d over both runs", got, scheduled)
	}
	if got := reg.Counter("rtopex_engine_events_executed_total").Value(); got != executed || got == 0 {
		t.Errorf("executed counter = %d, want %d over both runs", got, executed)
	}
	if got := reg.Gauge("rtopex_engine_clock_us").Value(); got != end {
		t.Errorf("clock gauge = %v, want the last run's end %v", got, end)
	}
}
