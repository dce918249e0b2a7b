package harness

import (
	"bytes"
	"testing"

	"rtopex/internal/lte"
	"rtopex/internal/model"
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
