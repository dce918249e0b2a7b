package flight_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtopex/internal/flight"
	"rtopex/internal/obs"
	"rtopex/internal/trace"
)

func ev(t float64, core, bs, sf int, kind trace.Kind, detail string) trace.Event {
	return trace.Event{Time: t, Core: core, BS: bs, Subframe: sf, Event: kind, Detail: detail}
}

func miss(t float64, core, bs, sf int) trace.Event {
	return ev(t, core, bs, sf, trace.EvFinish, "late")
}

func TestClassify(t *testing.T) {
	cases := []struct {
		e    trace.Event
		want flight.Trigger
		ok   bool
	}{
		{ev(1, 0, 0, 0, trace.EvFinish, "late"), flight.TriggerDeadlineMiss, true},
		{ev(1, 0, 0, 0, trace.EvFinish, "ack"), "", false},
		{ev(1, 0, 0, 0, trace.EvFinish, "decodefail"), "", false},
		{ev(1, 0, 0, 0, trace.EvDrop, "queue-full"), flight.TriggerOverrun, true},
		{ev(1, 0, 0, 0, trace.EvDrop, "slack"), flight.TriggerDrop, true},
		{ev(1, 0, 0, 0, trace.EvStart, ""), "", false},
		{ev(1, 0, 0, 0, trace.EvArrive, ""), "", false},
	}
	for _, c := range cases {
		got, ok := flight.Classify(c.e)
		if got != c.want || ok != c.ok {
			t.Errorf("Classify(%v/%s) = %q,%v; want %q,%v", c.e.Event, c.e.Detail, got, ok, c.want, c.ok)
		}
	}
}

// TestStormRateLimiting drives a burst of triggers far beyond the rate
// budget under an injected clock: the recorder must capture only the token
// budget, count everything else as suppressed, and never lose the
// triggers-observed total.
func TestStormRateLimiting(t *testing.T) {
	now := time.Unix(0, 0)
	rec := flight.New(flight.Config{
		PreEvents:  8,
		PostEvents: -1, // commit at the trigger: clean per-trigger accounting
		MaxPerSec:  2,
		Now:        func() time.Time { return now },
	})
	tap := rec.NewTap(flight.TapConfig{Label: "storm"})
	const storm = 20
	for i := 0; i < storm; i++ {
		tap.Emit(miss(float64(i), 0, 0, i))
	}
	tap.Close()
	rec.Close()
	if got := rec.Triggers(); got != storm {
		t.Fatalf("Triggers = %d, want %d", got, storm)
	}
	// burst(2) = 2 tokens, frozen clock: exactly two dossiers admitted.
	if got := rec.Written(); got != 2 {
		t.Fatalf("Written = %d, want 2 (token burst)", got)
	}
	if got := rec.Suppressed(); got != storm-2 {
		t.Fatalf("Suppressed = %d, want %d", got, storm-2)
	}
	if w, s := rec.Written(), rec.Suppressed(); w+s != storm {
		t.Fatalf("written(%d)+suppressed(%d) != triggers(%d)", w, s, storm)
	}
}

// TestRateLimitRefill checks the token bucket refills with the injected
// clock: after a dry burst, advancing time admits captures again.
func TestRateLimitRefill(t *testing.T) {
	now := time.Unix(0, 0)
	rec := flight.New(flight.Config{
		PostEvents: -1,
		MaxPerSec:  1,
		Now:        func() time.Time { return now },
	})
	tap := rec.NewTap(flight.TapConfig{})
	tap.Emit(miss(1, 0, 0, 0)) // takes the single token
	tap.Emit(miss(2, 0, 0, 1)) // suppressed
	now = now.Add(2 * time.Second)
	tap.Emit(miss(3, 0, 0, 2)) // refilled
	tap.Close()
	rec.Close()
	if got := rec.Written(); got != 2 {
		t.Fatalf("Written = %d, want 2 (one per refill)", got)
	}
	if got := rec.Suppressed(); got != 1 {
		t.Fatalf("Suppressed = %d, want 1", got)
	}
}

// TestLifetimeCap: MaxDossiers bounds captures over the recorder's life
// even with rate limiting disabled.
func TestLifetimeCap(t *testing.T) {
	rec := flight.New(flight.Config{PostEvents: -1, MaxPerSec: -1, MaxDossiers: 3})
	tap := rec.NewTap(flight.TapConfig{})
	for i := 0; i < 10; i++ {
		tap.Emit(miss(float64(i), 0, 0, i))
	}
	tap.Close()
	rec.Close()
	if got := rec.Written(); got != 3 {
		t.Fatalf("Written = %d, want 3 (lifetime cap)", got)
	}
	if got := rec.Suppressed(); got != 7 {
		t.Fatalf("Suppressed = %d, want 7", got)
	}
}

// TestRingWraparound: a long quiet stretch before the trigger must leave
// only the freshest PreEvents per core in the window, with the overwritten
// prefix counted in RingDropped.
func TestRingWraparound(t *testing.T) {
	rec := flight.New(flight.Config{PreEvents: 4, PostEvents: -1, MaxPerSec: -1})
	tap := rec.NewTap(flight.TapConfig{Label: "wrap"})
	const quiet = 100
	for i := 0; i < quiet; i++ {
		tap.Emit(ev(float64(i), 0, 0, 0, trace.EvPhase, "fft"))
	}
	tap.Emit(miss(float64(quiet), 0, 0, 0))
	tap.Close()
	rec.Close()
	d, ok := rec.Dossier(1)
	if !ok {
		t.Fatal("dossier 1 not retained")
	}
	if len(d.Window) != 4 {
		t.Fatalf("window has %d events, want 4 (ring capacity)", len(d.Window))
	}
	// The freshest events survive — the trigger itself is the newest.
	last := d.Window[len(d.Window)-1]
	if last.Event != trace.EvFinish || last.Detail != "late" {
		t.Fatalf("window tail is %v/%s, want the trigger", last.Event, last.Detail)
	}
	if d.RingDropped != quiet+1-4 {
		t.Fatalf("RingDropped = %d, want %d", d.RingDropped, quiet+1-4)
	}
}

// TestTapEmitAllocationFree: once its rings are warm, a tap stores a
// non-trigger event, and feeds its own accountant, without allocating.
func TestTapEmitAllocationFree(t *testing.T) {
	rec := flight.New(flight.Config{})
	defer rec.Close()
	tap := rec.NewTap(flight.TapConfig{})
	plan := trace.Event{Time: 1, Core: 3, BS: 1, Subframe: 5, Event: trace.EvMigPlan,
		Render: trace.RenderInt, Detail: "fft n=", Arg: 3}
	phase := ev(2, 3, 1, 5, trace.EvPhase, "fft")
	for i := 0; i < 1024; i++ {
		tap.Emit(plan)
		tap.Emit(phase)
	}
	n := testing.AllocsPerRun(1000, func() {
		tap.Emit(plan)
		tap.Emit(phase)
	})
	if n != 0 {
		t.Fatalf("Tap.Emit: %v allocations per pair of events, want 0", n)
	}
}

// TestPostTriggerWindow: with PostEvents set, the dossier stays pending
// until the post-trigger tail arrives, and a tap closed mid-window still
// flushes the partial dossier.
func TestPostTriggerWindow(t *testing.T) {
	rec := flight.New(flight.Config{PreEvents: 8, PostEvents: 2, MaxPerSec: -1})
	tap := rec.NewTap(flight.TapConfig{})
	tap.Emit(ev(1, 0, 0, 0, trace.EvStart, ""))
	tap.Emit(miss(2, 0, 0, 0))
	tap.Emit(ev(3, 1, 0, 1, trace.EvStart, ""))
	tap.Emit(ev(4, 1, 0, 1, trace.EvPhase, "fft"))
	tap.Emit(ev(5, 1, 0, 1, trace.EvPhase, "demod")) // beyond the window
	tap.Close()
	rec.Close()
	d, ok := rec.Dossier(1)
	if !ok {
		t.Fatal("dossier not committed after post window filled")
	}
	if d.PreEvents != 2 || d.PostEvents != 2 {
		t.Fatalf("pre/post = %d/%d, want 2/2", d.PreEvents, d.PostEvents)
	}
	if len(d.Window) != 4 {
		t.Fatalf("window has %d events, want 4", len(d.Window))
	}

	// Partial flush on Close.
	rec2 := flight.New(flight.Config{PostEvents: 8, MaxPerSec: -1})
	tap2 := rec2.NewTap(flight.TapConfig{})
	tap2.Emit(miss(1, 0, 0, 0))
	tap2.Emit(ev(2, 0, 0, 1, trace.EvStart, ""))
	tap2.Close() // window still open: must flush
	rec2.Close()
	d2, ok := rec2.Dossier(1)
	if !ok {
		t.Fatal("partial dossier lost on Close")
	}
	if d2.PostEvents != 1 {
		t.Fatalf("partial PostEvents = %d, want 1", d2.PostEvents)
	}
}

// TestTriggerInsideWindow: a second trigger during an open post window is
// counted but opens no second capture.
func TestTriggerInsideWindow(t *testing.T) {
	rec := flight.New(flight.Config{PostEvents: 4, MaxPerSec: -1})
	tap := rec.NewTap(flight.TapConfig{})
	tap.Emit(miss(1, 0, 0, 0))
	tap.Emit(miss(2, 0, 0, 1)) // rides along in the open window
	tap.Emit(ev(3, 0, 0, 2, trace.EvStart, ""))
	tap.Emit(ev(4, 0, 0, 2, trace.EvPhase, "fft"))
	tap.Emit(ev(5, 0, 0, 2, trace.EvPhase, "demod"))
	tap.Close()
	rec.Close()
	if got := rec.Triggers(); got != 2 {
		t.Fatalf("Triggers = %d, want 2", got)
	}
	if got := rec.Written(); got != 1 {
		t.Fatalf("Written = %d, want 1 (second trigger rode along)", got)
	}
}

// TestDossierRoundTrip: WriteJSON → ReadDossier is lossless, and the
// version gate rejects documents from the future.
func TestDossierRoundTrip(t *testing.T) {
	d := &flight.Dossier{
		Version:      flight.DossierVersion,
		Seq:          7,
		Label:        "rtopex",
		Trigger:      flight.TriggerDeadlineMiss,
		TriggerEvent: miss(2650, 3, 1, 42),
		BudgetUS:     2000,
		ArrivalUS:    42000,
		DeadlineUS:   44000,
		Window: []trace.Event{
			ev(42000, -1, 1, 42, trace.EvArrive, ""),
			ev(42010, 3, 1, 42, trace.EvStart, ""),
			miss(44100, 3, 1, 42),
		},
		PreEvents:   3,
		RingDropped: 5,
		Cores:       []obs.CoreReport{{Core: 3, BusyUS: 1500, Busy: 0.75, Idle: 0.25}},
		Sched: &flight.SchedState{
			Scheduler:       "rtopex",
			NowUS:           44100,
			QueueDepths:     []int{0, 2, 1, 0},
			RunningJobs:     2,
			InFlightBatches: 1,
		},
		Runtime: &obs.RuntimeSnapshot{GCCycles: 3, Goroutines: 9},
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := flight.ReadDossier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}

	// Version gate: a future schema is a hard error, not a guess.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["flight_version"] = flight.DossierVersion + 1
	future, _ := json.Marshal(raw)
	if _, err := flight.ReadDossier(bytes.NewReader(future)); err == nil {
		t.Fatal("future flight_version accepted")
	} else if !strings.Contains(err.Error(), "unsupported flight_version") {
		t.Fatalf("wrong version-gate error: %v", err)
	}
}

// TestSpoolCapsAndResume: the spool evicts oldest-first under its caps and
// rescans surviving dossiers on reopen.
func TestSpoolCapsAndResume(t *testing.T) {
	dir := t.TempDir()
	sp, err := flight.NewSpool(flight.SpoolConfig{Dir: dir, MaxDossiers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		d := &flight.Dossier{
			Version: flight.DossierVersion, Seq: uint64(i),
			Trigger: flight.TriggerDeadlineMiss, TriggerEvent: miss(float64(i), 0, 0, i),
		}
		if _, err := sp.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	if sp.Len() != 3 || sp.Evicted() != 2 {
		t.Fatalf("Len/Evicted = %d/%d, want 3/2", sp.Len(), sp.Evicted())
	}
	if _, err := os.Stat(filepath.Join(dir, "dossier-000001-deadline-miss.json")); !os.IsNotExist(err) {
		t.Fatal("oldest dossier not evicted from disk")
	}
	list := sp.List()
	if len(list) != 3 || filepath.Base(list[0]) != "dossier-000003-deadline-miss.json" {
		t.Fatalf("unexpected surviving list: %v", list)
	}

	// Reopen: the rescan must account the survivors against the caps.
	sp2, err := flight.NewSpool(flight.SpoolConfig{Dir: dir, MaxDossiers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Len() != 3 {
		t.Fatalf("resumed Len = %d, want 3", sp2.Len())
	}
	d := &flight.Dossier{Version: flight.DossierVersion, Seq: 6,
		Trigger: flight.TriggerOverrun, TriggerEvent: miss(6, 0, 0, 6)}
	if _, err := sp2.Write(d); err != nil {
		t.Fatal(err)
	}
	if sp2.Len() != 3 || sp2.Evicted() != 1 {
		t.Fatalf("post-resume Len/Evicted = %d/%d, want 3/1", sp2.Len(), sp2.Evicted())
	}
}

// TestRecorderSpoolsAndRenders is the integration spine: trigger → spool →
// read back → post-mortem render, with the stage breakdown summing to the
// subframe's completion time.
func TestRecorderSpoolsAndRenders(t *testing.T) {
	dir := t.TempDir()
	sp, err := flight.NewSpool(flight.SpoolConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Config{PostEvents: -1, MaxPerSec: -1, Spool: sp})
	tap := rec.NewTap(flight.TapConfig{
		Label:    "rtopex",
		BudgetUS: 2000,
		Job: func(bs, sf int) (float64, float64, bool) {
			return 0, 2000, true
		},
		State: func() flight.SchedState {
			return flight.SchedState{Scheduler: "rtopex", QueueDepths: []int{1}}
		},
	})
	// EvPhase marks each stage's start; the first phase coincides with
	// EvStart, so stage durations sum exactly to start→finish.
	tap.Emit(ev(0, -1, 0, 0, trace.EvArrive, ""))
	tap.Emit(ev(10, 0, 0, 0, trace.EvStart, ""))
	tap.Emit(ev(10, 0, 0, 0, trace.EvPhase, "fft"))
	tap.Emit(ev(510, 0, 0, 0, trace.EvPhase, "demod"))
	tap.Emit(miss(2100, 0, 0, 0))
	tap.Close()
	rec.Close()
	if sp.Len() != 1 {
		t.Fatalf("spooled %d dossiers, want 1", sp.Len())
	}
	d, err := flight.ReadDossierFile(sp.List()[0])
	if err != nil {
		t.Fatal(err)
	}
	stages, start, end, ok := flight.StageBreakdown(d)
	if !ok {
		t.Fatal("no stage breakdown")
	}
	var sum float64
	for _, s := range stages {
		sum += s.DurUS
	}
	if got, want := sum, end-start; got != want {
		t.Fatalf("stage durations sum to %.1f, completion is %.1f", got, want)
	}
	var out bytes.Buffer
	if err := flight.WritePostMortem(&out, d); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"deadline-miss", "fft", "demod", "overshot deadline"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("post-mortem missing %q:\n%s", want, out.String())
		}
	}
}
