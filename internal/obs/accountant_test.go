package obs

import (
	"math"
	"testing"

	"rtopex/internal/trace"
)

func ev(t float64, core int, k trace.Kind) trace.Event {
	return trace.Event{Time: t, Core: core, Event: k}
}

func TestAccountantFractionsSumToOne(t *testing.T) {
	a := NewCoreAccountant()
	// Core 0: own job 100–400, hosts a batch 500–650 (preempted).
	a.Emit(ev(0, -1, trace.EvArrive)) // core -1: ignored for accounting
	a.Emit(ev(100, 0, trace.EvStart))
	a.Emit(ev(400, 0, trace.EvFinish))
	a.Emit(ev(500, 0, trace.EvMigPlan))
	a.Emit(ev(650, 0, trace.EvMigPreempt))
	// Core 1: a drop still closes the busy interval.
	a.Emit(ev(200, 1, trace.EvStart))
	a.Emit(ev(300, 1, trace.EvDrop))

	reports := a.Reports(2, 1000)
	r0 := reports[0]
	if r0.BusyUS != 300 || r0.MigrationUS != 150 || r0.IdleUS != 550 {
		t.Fatalf("core 0: %+v", r0)
	}
	for _, r := range reports {
		if sum := r.Busy + r.Migration + r.Idle; sum != 1.0 {
			t.Errorf("core %d fractions sum to %v, want exactly 1.0", r.Core, sum)
		}
		if sum := r.BusyUS + r.MigrationUS + r.IdleUS; math.Abs(sum-1000) > 1e-9 {
			t.Errorf("core %d microseconds sum to %v, want 1000", r.Core, sum)
		}
	}
	if reports[1].BusyUS != 100 {
		t.Fatalf("core 1 busy = %v, want 100 (drop closes interval)", reports[1].BusyUS)
	}
}

func TestAccountantOpenIntervalsCloseAtWindowEnd(t *testing.T) {
	a := NewCoreAccountant()
	a.Emit(ev(100, 0, trace.EvStart)) // never finished
	r := a.Reports(1, 500)[0]
	if r.BusyUS != 400 {
		t.Fatalf("open job should be closed at window end: busy = %v, want 400", r.BusyUS)
	}
	// Reports must not mutate state: a second call with a later end extends
	// the same open interval.
	r = a.Reports(1, 600)[0]
	if r.BusyUS != 500 {
		t.Fatalf("reports mutated accountant state: busy = %v, want 500", r.BusyUS)
	}
}

func TestAccountantDefaults(t *testing.T) {
	a := NewCoreAccountant()
	a.Emit(ev(10, 2, trace.EvStart))
	a.Emit(ev(30, 2, trace.EvFinish))
	if a.end != 30 {
		t.Fatalf("end = %v, want 30", a.end)
	}
	// cores ≤ 0 sizes to the highest core; end ≤ 0 uses the last event time.
	reports := a.Reports(0, 0)
	if len(reports) != 3 {
		t.Fatalf("len(reports) = %d, want 3", len(reports))
	}
	if reports[2].BusyUS != 20 || reports[2].Busy != 20.0/30 {
		t.Fatalf("core 2: %+v", reports[2])
	}
}

func TestAccountantFromLogSortsEvents(t *testing.T) {
	log := &trace.EventLog{Events: []trace.Event{
		ev(400, 0, trace.EvFinish), // out of order on purpose
		ev(100, 0, trace.EvStart),
	}}
	a := AccountantFromLog(log)
	if got := a.Reports(1, 400)[0].BusyUS; got != 300 {
		t.Fatalf("busy = %v, want 300 (events must be replayed time-sorted)", got)
	}
}

func TestAccountantPublish(t *testing.T) {
	a := NewCoreAccountant()
	a.Emit(ev(0, 0, trace.EvStart))
	a.Emit(ev(250, 0, trace.EvFinish))
	reg := NewRegistry()
	a.Publish(reg, 1, 1000)
	if got := reg.Gauge("rtopex_core_busy_fraction", L("core", "0")).Value(); got != 0.25 {
		t.Fatalf("published busy fraction = %v, want 0.25", got)
	}
	if got := reg.Gauge("rtopex_core_idle_fraction", L("core", "0")).Value(); got != 0.75 {
		t.Fatalf("published idle fraction = %v, want 0.75", got)
	}
}

// TestAccountantEmitAllocationFree: once every core has been seen, an event
// costs the accountant no allocation.
func TestAccountantEmitAllocationFree(t *testing.T) {
	a := NewCoreAccountant()
	for c := 0; c < 8; c++ {
		a.Emit(ev(0, c, trace.EvStart))
	}
	n := testing.AllocsPerRun(1000, func() {
		a.Emit(ev(10, 7, trace.EvFinish))
		a.Emit(ev(20, 7, trace.EvStart))
	})
	if n != 0 {
		t.Fatalf("Emit: %v allocations per pair of events, want 0", n)
	}
}
