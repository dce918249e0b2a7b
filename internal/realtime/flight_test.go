package realtime

import (
	"testing"

	"rtopex/internal/flight"
)

// TestFlightRecorderCapturesOverrun arms the live runner's flight recorder
// on a single core that cannot keep up: MCS-27 subframes released every
// 20 µs overflow the 4-deep queue, and at least one overrun dossier must be
// captured with the live run's label, queue depths and runtime snapshot.
func TestFlightRecorderCapturesOverrun(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	spool, err := flight.NewSpool(flight.SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Config{Spool: spool, MaxPerSec: -1, PostEvents: -1})
	st, err := Run(Config{
		Basestations: 1,
		CoresPerBS:   1,
		Subframes:    20,
		Antennas:     1,
		SNRdB:        30,
		MCS:          27,
		Dilation:     0.02,
		Seed:         5,
		Flight:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	checkAccounting(t, st)
	if st.Dropped < 1 {
		t.Fatalf("no queue-full drops: %+v", *st)
	}
	if got := rec.Triggers(); got < 1 {
		t.Fatalf("recorder saw %d triggers, want ≥ 1", got)
	}
	var overrun *flight.Dossier
	for _, path := range spool.List() {
		d, err := flight.ReadDossierFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if d.Trigger == flight.TriggerOverrun {
			overrun = d
			break
		}
	}
	if overrun == nil {
		t.Fatalf("no overrun dossier among %d spooled", spool.Len())
	}
	if overrun.Label != "realtime" {
		t.Fatalf("label = %q, want realtime", overrun.Label)
	}
	if overrun.Sched == nil || len(overrun.Sched.QueueDepths) == 0 {
		t.Fatalf("missing scheduler state snapshot: %+v", overrun.Sched)
	}
	if overrun.Runtime == nil {
		t.Fatal("missing runtime snapshot")
	}
}
