package realtime

import (
	"testing"

	"rtopex/internal/obs"
	"rtopex/internal/trace"
)

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		{Basestations: 1, Subframes: 1, CoresPerBS: 0, Antennas: 1},
		{Basestations: 1, Subframes: 1, CoresPerBS: 1, Antennas: 0},
		{Basestations: 1, Subframes: 1, CoresPerBS: 1, Antennas: 1, MCS: 99},
		{Basestations: 2, Subframes: 1, CoresPerBS: 1, Antennas: 1, MCS: -1,
			Profiles: trace.DefaultProfiles[:1]},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestLiveRunFixedMCS(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	// Tiny but real: 1 basestation, low MCS (fast decode), generous
	// dilation so even a loaded CI machine meets the deadlines.
	st, err := Run(Config{
		Basestations: 1,
		CoresPerBS:   2,
		Subframes:    10,
		Antennas:     1,
		SNRdB:        30,
		MCS:          0,
		Dilation:     30,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, st)
	if st.Subframes != 10 {
		t.Fatalf("accounted %d subframes, want 10", st.Subframes)
	}
	if st.Decoded == 0 {
		t.Fatal("nothing decoded in live mode")
	}
	if len(st.ProcUS) == 0 {
		t.Fatal("no processing-time samples")
	}
	for _, p := range st.ProcUS {
		if p <= 0 {
			t.Fatal("non-positive processing time")
		}
	}
	for _, w := range st.WaitUS {
		if w < 0 {
			t.Fatalf("subframe started %.1f µs before its release", -w)
		}
	}
}

func TestLiveRunTraceDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	st, err := Run(Config{
		Basestations: 2,
		CoresPerBS:   2,
		Subframes:    8,
		Antennas:     1,
		SNRdB:        30,
		MCS:          -1,
		Profiles:     trace.DefaultProfiles,
		Dilation:     60,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, st)
	if st.Subframes != 16 {
		t.Fatalf("accounted %d subframes, want 16", st.Subframes)
	}
	// Tolerate misses (shared CI hardware) but decode must mostly work.
	if st.Decoded+st.Missed < st.Subframes/2 {
		t.Fatalf("too few completions: %+v", *st)
	}
}

func TestLiveRunTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	ring := trace.NewRing(0)
	st, err := Run(Config{
		Basestations: 1,
		CoresPerBS:   2,
		Subframes:    6,
		Antennas:     1,
		SNRdB:        30,
		MCS:          0,
		Dilation:     30,
		Seed:         3,
		Tracer:       ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, st)
	events := ring.Events()
	counts := map[trace.Kind]int{}
	phases := map[string]int{}
	type key struct{ bs, sf int }
	arrived := map[key]float64{}
	for _, e := range events {
		if e.Time < 0 {
			t.Fatalf("event before epoch: %+v", e)
		}
		counts[e.Event]++
		switch e.Event {
		case trace.EvPhase:
			phases[e.Detail]++
		case trace.EvArrive:
			arrived[key{e.BS, e.Subframe}] = e.Time
		}
	}
	// Never released early: every start follows its subframe's release.
	for _, e := range events {
		if e.Event != trace.EvStart {
			continue
		}
		at, ok := arrived[key{e.BS, e.Subframe}]
		if !ok {
			t.Fatalf("subframe %d started without a release", e.Subframe)
		}
		if e.Time < at {
			t.Fatalf("subframe %d started at %.1f µs, released at %.1f µs", e.Subframe, e.Time, at)
		}
	}
	if counts[trace.EvArrive] != 6 {
		t.Fatalf("%d arrivals for 6 subframes", counts[trace.EvArrive])
	}
	// Every processed subframe gets a start, its pipeline phases, and a
	// finish; drops (queue-full) get neither.
	processed := st.Subframes - st.Dropped
	if counts[trace.EvStart] != processed || counts[trace.EvFinish] != processed {
		t.Fatalf("start=%d finish=%d for %d processed subframes",
			counts[trace.EvStart], counts[trace.EvFinish], processed)
	}
	if counts[trace.EvDrop] != st.Dropped {
		t.Fatalf("%d drop events for %d drops", counts[trace.EvDrop], st.Dropped)
	}
	for _, task := range []string{"fft", "chest", "demod", "decode"} {
		if phases[task] != processed {
			t.Fatalf("phase %q emitted %d times for %d processed subframes",
				task, phases[task], processed)
		}
	}
}

func TestLiveRunObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	reg := obs.NewRegistry()
	st, err := Run(Config{
		Basestations: 1,
		CoresPerBS:   2,
		Subframes:    6,
		Antennas:     1,
		SNRdB:        30,
		MCS:          0,
		Dilation:     30,
		Seed:         4,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, st)
	// The live registry must agree with the final Stats on every counter.
	if got := reg.Counter("rtopex_live_subframes_total").Value(); got != int64(st.Subframes) {
		t.Fatalf("live subframes = %d, stats %d", got, st.Subframes)
	}
	if got := reg.Counter("rtopex_live_decoded_total").Value(); got != int64(st.Decoded) {
		t.Fatalf("live decoded = %d, stats %d", got, st.Decoded)
	}
	if got := reg.Counter("rtopex_live_missed_total").Value(); got != int64(st.Missed) {
		t.Fatalf("live missed = %d, stats %d", got, st.Missed)
	}
	if got := reg.Counter("rtopex_live_dropped_total").Value(); got != int64(st.Dropped) {
		t.Fatalf("live dropped = %d, stats %d", got, st.Dropped)
	}
	h := reg.Histogram("rtopex_live_proc_us")
	if got := h.Count(); got != uint64(len(st.ProcUS)) {
		t.Fatalf("live proc histogram count = %d, stats %d", got, len(st.ProcUS))
	}
	if h.Count() > 0 && h.Quantile(0.5) <= 0 {
		t.Fatal("median processing time should be positive")
	}
}

// TestLiveRunFeedsAccountant wires the accountant in as livebench does, as
// the run's bare Tracer. The accountant takes no lock of its own, so this
// pins the contract it relies on: concurrent workers reach every sink
// through trace.Locked. make race runs it under the race detector.
func TestLiveRunFeedsAccountant(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	acct := obs.NewCoreAccountant()
	st, err := Run(Config{
		Basestations: 1,
		CoresPerBS:   2,
		Subframes:    40,
		Antennas:     1,
		SNRdB:        30,
		MCS:          0,
		Dilation:     10,
		Seed:         5,
		Tracer:       acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, st)
	reports := acct.Reports(2, 0)
	if len(reports) != 2 {
		t.Fatalf("%d core reports, want 2", len(reports))
	}
	for _, r := range reports {
		if sum := r.Busy + r.Migration + r.Idle; sum != 1 {
			t.Errorf("core %d fractions sum to %v, want 1", r.Core, sum)
		}
		if r.Busy <= 0 {
			t.Errorf("core %d never busy: %+v", r.Core, r)
		}
	}
}

// TestLateDecodeFailureCountsOnce: a subframe whose CRC fails after its
// deadline has exactly one outcome, late, in Stats, the trace and the live
// registry.
func TestLateDecodeFailureCountsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	ring := trace.NewRing(0)
	reg := obs.NewRegistry()
	const n = 3
	// At −5 dB every MCS-27 block fails CRC after the full iteration cap,
	// far beyond the 0.5 ms budget of Dilation 0.25.
	st, err := Run(Config{
		Basestations: 1,
		CoresPerBS:   1,
		Subframes:    n,
		Antennas:     1,
		SNRdB:        -5,
		MCS:          27,
		Dilation:     0.25,
		Seed:         6,
		Tracer:       ring,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, st)
	if st.Missed != n || st.DecodeFail != 0 {
		t.Fatalf("missed %d, decode failures %d; want %d late and none failed: %+v", st.Missed, st.DecodeFail, n, *st)
	}
	finishes := 0
	for _, e := range ring.Events() {
		if e.Event == trace.EvFinish {
			finishes++
			if e.Detail != "late" {
				t.Fatalf("finish detail %q, want late", e.Detail)
			}
		}
	}
	if finishes != n {
		t.Fatalf("%d EvFinish events, want %d", finishes, n)
	}
	if got := reg.Counter("rtopex_live_decode_fail_total").Value(); got != 0 {
		t.Fatalf("live decode-fail counter = %d, want 0", got)
	}
	if got := reg.Counter("rtopex_live_missed_total").Value(); got != n {
		t.Fatalf("live missed counter = %d, want %d", got, n)
	}
}

func TestStatsMissRate(t *testing.T) {
	s := &Stats{Subframes: 10, Missed: 2, Dropped: 1}
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate %v", s.MissRate())
	}
	if (&Stats{}).MissRate() != 0 {
		t.Fatal("empty stats miss rate")
	}
}

// checkAccounting asserts the invariants every live run keeps: each
// released subframe has exactly one outcome, each processed one a
// processing and a wait sample, and each missed one a tardiness sample.
func checkAccounting(t *testing.T, st *Stats) {
	t.Helper()
	if got := st.Decoded + st.DecodeFail + st.Missed + st.Dropped; got != st.Subframes {
		t.Fatalf("outcomes sum to %d for %d subframes: %+v", got, st.Subframes, *st)
	}
	processed := st.Subframes - st.Dropped
	if len(st.ProcUS) != processed || len(st.WaitUS) != processed {
		t.Fatalf("%d processing and %d wait samples for %d processed subframes",
			len(st.ProcUS), len(st.WaitUS), processed)
	}
	if len(st.LateUS) != st.Missed {
		t.Fatalf("%d tardiness samples for %d missed subframes", len(st.LateUS), st.Missed)
	}
}
