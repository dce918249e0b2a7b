package sched

import (
	"bytes"
	"encoding/json"
	"testing"

	"rtopex/internal/model"
	"rtopex/internal/platform"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
)

// TestRTOPEXAbandonedBatchCountersReversed is the regression test for the
// migration-accounting bug: planTask booked MigrationBatches/FFTBatches/
// DecodeBatches *before* the owner's drop check, so batches abandoned by an
// immediate drop still inflated the Fig. 16 migration denominators. The
// fix decrements the counters in abandon().
func TestRTOPEXAbandonedBatchCountersReversed(t *testing.T) {
	eng := platform.New()
	m := NewMetrics("rt-opex", 2)
	r := NewRTOPEX(2)
	ring := trace.NewRing(0)
	env := &Env{
		Eng: eng, M: m, Cores: 4, RNG: stats.NewRNG(1),
		ExpectedRTT2: 0, SubframesPerBS: 10, Trace: ring,
	}
	r.Attach(env)

	// 50 FFT subtasks of 100 µs against a 350 µs deadline: Algorithm 1
	// offloads a batch to each of the three idle cores (limoff =
	// ⌊(350−δ)/100⌋ = 3 each), but the 41 local subtasks still blow the
	// deadline, so the job drops at the FFT slack check and every batch
	// must be abandoned.
	j := &Job{
		BS: 0, Index: 0, L: 1, Decodable: true,
		Arrival: 0, Deadline: 350,
		Tasks:       model.TaskTimes{FFT: 5000, Demod: 10, Decode: 10},
		FFTSubtasks: 50, FFTSubtaskUS: 100,
		DecodeSubtasks: 1, DecodeSubtaskUS: 10,
	}
	eng.At(0, func() { r.OnArrival(j) })
	eng.Run()

	if got := m.PerBS[0].Dropped; got != 1 {
		t.Fatalf("dropped %d, want 1 (scenario did not trigger the drop path)", got)
	}
	var planned, abandoned int
	for _, e := range ring.Events() {
		switch e.Event {
		case trace.EvMigPlan:
			planned++
		case trace.EvMigAbandon:
			abandoned++
		}
	}
	if planned == 0 {
		t.Fatal("no batches planned (scenario did not trigger migration)")
	}
	if abandoned != planned {
		t.Fatalf("planned %d batches but abandoned %d", planned, abandoned)
	}
	// The bug: these stayed at `planned` after the drop.
	if m.MigrationBatches != 0 || m.FFTBatches != 0 || m.DecodeBatches != 0 {
		t.Fatalf("abandoned batches left counters inflated: mig=%d fft=%d decode=%d",
			m.MigrationBatches, m.FFTBatches, m.DecodeBatches)
	}
	if m.FFTSubtasksMigrated != 0 {
		t.Fatalf("abandoned batches counted as migrated subtasks: %d", m.FFTSubtasksMigrated)
	}
}

// TestRTOPEXBatchCountersMatchTrace cross-checks the counter bookkeeping on
// a full jittery run: the batches counted by Metrics must equal the planned
// batches minus the abandoned ones seen in the trace.
func TestRTOPEXBatchCountersMatchTrace(t *testing.T) {
	w := jitteryWorkload(t, 2000, 1)
	ring := trace.NewRing(0)
	m, err := RunConfigured(w, NewRTOPEX(2), RunConfig{Cores: 8, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, e := range ring.Events() {
		counts[e.Event]++
	}
	planned, abandoned := counts[trace.EvMigPlan], counts[trace.EvMigAbandon]
	if m.MigrationBatches != planned-abandoned {
		t.Fatalf("MigrationBatches %d != planned %d - abandoned %d",
			m.MigrationBatches, planned, abandoned)
	}
	if m.FFTBatches+m.DecodeBatches != m.MigrationBatches {
		t.Fatalf("fft %d + decode %d != total %d", m.FFTBatches, m.DecodeBatches, m.MigrationBatches)
	}
	if m.Preemptions != counts[trace.EvMigPreempt] {
		t.Fatalf("Preemptions %d != trace preempts %d", m.Preemptions, counts[trace.EvMigPreempt])
	}
	if m.Recoveries != counts[trace.EvMigRecompute] {
		t.Fatalf("Recoveries %d != trace recomputes %d", m.Recoveries, counts[trace.EvMigRecompute])
	}
}

// TestPartitionedGapsExcludeMisses pins the Fig. 16 gap histogram fix: only
// subframes that completed within the deadline (ACK or DecodeFail) record a
// gap. The old code also booked Late completions as zero-clamped gaps,
// deflating the distribution.
func TestPartitionedGapsExcludeMisses(t *testing.T) {
	w := testWorkload(t, 2000, 700, 2)
	m, err := Run(w, NewPartitioned(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	var ack, late, decodeFail int
	for _, b := range m.PerBS {
		ack += b.ACK
		late += b.Late
		decodeFail += b.DecodeFail
	}
	if late == 0 {
		t.Fatal("workload produced no late completions; the test does not exercise the fix")
	}
	if len(m.Gaps) != ack+decodeFail {
		t.Fatalf("gap count %d, want ack %d + decodefail %d (late=%d must not record)",
			len(m.Gaps), ack, decodeFail, late)
	}
	for _, g := range m.Gaps {
		if g < 0 {
			t.Fatalf("negative gap %v recorded", g)
		}
	}
}

// TestSchedulersPopulateGaps pins the other half of the gap fix: RT-OPEX
// and Global used to leave Metrics.Gaps empty.
func TestSchedulersPopulateGaps(t *testing.T) {
	for _, s := range []Scheduler{NewRTOPEX(2), NewGlobal()} {
		w := testWorkload(t, 500, 550, 4)
		m, err := Run(w, s, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Gaps) == 0 {
			t.Fatalf("%s recorded no gaps", s.Name())
		}
	}
}

// TestTraceDeterminism runs the same workload twice and requires
// byte-identical trace exports: the simulation and the trace layer must be
// fully reproducible.
func TestTraceDeterminism(t *testing.T) {
	export := func() []byte {
		w := jitteryWorkload(t, 500, 9)
		ring := trace.NewRing(0)
		m, err := RunConfigured(w, NewRTOPEX(2), RunConfig{Cores: 8, Tracer: ring})
		if err != nil {
			t.Fatal(err)
		}
		log := &trace.EventLog{Scheduler: m.Scheduler, Cores: 8, Events: ring.Events()}
		var buf bytes.Buffer
		if err := log.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs exported different traces")
	}
}

// TestTracingDoesNotChangeMetrics: attaching a tracer must not perturb the
// simulation — metrics with and without tracing must serialize identically.
func TestTracingDoesNotChangeMetrics(t *testing.T) {
	run := func(tr trace.Tracer) []byte {
		w := jitteryWorkload(t, 500, 11)
		m, err := RunConfigured(w, NewRTOPEX(2), RunConfig{Cores: 8, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(nil), run(trace.NewRing(0))) {
		t.Fatal("tracing changed the simulation's metrics")
	}
}
