package obs

import (
	"fmt"
	"sort"

	"rtopex/internal/trace"
)

// CoreAccountant derives per-core utilization from the run-level trace
// events PR 1/2 already emit: time between EvStart and EvFinish/EvDrop is
// the core running its *own* subframe; time between EvMigPlan and
// EvMigComplete/EvMigPreempt/EvMigAbandon is the core hosting a *migrated*
// batch (the paper's migration overhead); everything else is idle. It
// implements trace.Tracer, so it attaches anywhere a Ring does — typically
// fanned out beside one via trace.Tee. Like Ring, it is unsynchronized:
// concurrent emitters (the realtime layer's workers) serialize it with
// trace.Locked, and Reports and Publish run once emission has stopped.
//
// The replay mirrors cmd/rtoptrace's timeline painter, so the fractions it
// reports are, by construction, the ink ('#' and 'm' columns) of the ASCII
// timeline divided by the window.
type CoreAccountant struct {
	cores []coreAcct // indexed by core
	end   float64
}

type coreAcct struct {
	busyUS    float64
	hostUS    float64
	jobOpen   float64
	batchOpen float64
	inJob     bool
	inBatch   bool
}

// NewCoreAccountant creates an empty accountant.
func NewCoreAccountant() *CoreAccountant { return &CoreAccountant{} }

// Emit implements trace.Tracer.
func (a *CoreAccountant) Emit(e trace.Event) {
	if e.Time > a.end {
		a.end = e.Time
	}
	if e.Core < 0 {
		return
	}
	for e.Core >= len(a.cores) {
		a.cores = append(a.cores, coreAcct{})
	}
	c := &a.cores[e.Core]
	switch e.Event {
	case trace.EvStart:
		c.jobOpen, c.inJob = e.Time, true
	case trace.EvFinish, trace.EvDrop:
		if c.inJob {
			c.busyUS += span(c.jobOpen, e.Time)
			c.inJob = false
		}
	case trace.EvMigPlan:
		c.batchOpen, c.inBatch = e.Time, true
	case trace.EvMigComplete, trace.EvMigPreempt, trace.EvMigAbandon:
		if c.inBatch {
			c.hostUS += span(c.batchOpen, e.Time)
			c.inBatch = false
		}
	}
}

// span guards against a close that lands (by float arithmetic) before its
// open: a zero-length interval, not negative busy time.
func span(from, to float64) float64 {
	if to < from {
		return 0
	}
	return to - from
}

// CoreReport is one core's utilization over a run window.
type CoreReport struct {
	Core        int     `json:"core"`
	BusyUS      float64 `json:"busy_us"`      // running its own subframes
	MigrationUS float64 `json:"migration_us"` // hosting migrated batches
	IdleUS      float64 `json:"idle_us"`
	Busy        float64 `json:"busy"` // fractions of the window; sum to 1
	Migration   float64 `json:"migration"`
	Idle        float64 `json:"idle"`
}

// Reports returns per-core utilization over [0, end]. Intervals still open
// at the window end are closed there. cores ≤ 0 sizes the report to the
// highest core seen; end ≤ 0 uses the last event time. The three fractions
// sum to exactly 1.0 per core (idle is computed as the complement).
func (a *CoreAccountant) Reports(cores int, end float64) []CoreReport {
	if end <= 0 {
		end = a.end
	}
	if cores <= 0 {
		cores = len(a.cores)
	}
	out := make([]CoreReport, cores)
	for i := range out {
		r := CoreReport{Core: i}
		if i < len(a.cores) {
			c := &a.cores[i]
			r.BusyUS, r.MigrationUS = c.busyUS, c.hostUS
			if c.inJob {
				r.BusyUS += span(c.jobOpen, end)
			}
			if c.inBatch {
				r.MigrationUS += span(c.batchOpen, end)
			}
		}
		r.IdleUS = end - r.BusyUS - r.MigrationUS
		if r.IdleUS < 0 {
			r.IdleUS = 0
		}
		if end > 0 {
			r.Busy = r.BusyUS / end
			r.Migration = r.MigrationUS / end
			// Parenthesized so busy + migration + idle sums to exactly 1.0
			// in float arithmetic (idle complements the rounded busy+mig).
			r.Idle = 1 - (r.Busy + r.Migration)
			if r.Idle < 0 {
				r.Idle = 0
			}
		}
		out[i] = r
	}
	return out
}

// Publish writes the per-core fractions into reg as gauges
// (rtopex_core_{busy,migration,idle}_fraction{core="i"} plus the raw busy
// microseconds).
func (a *CoreAccountant) Publish(reg *Registry, cores int, end float64) {
	reg.SetHelp("rtopex_core_busy_fraction", "Fraction of the run window the core ran its own subframes.")
	reg.SetHelp("rtopex_core_migration_fraction", "Fraction of the run window the core hosted migrated batches.")
	reg.SetHelp("rtopex_core_idle_fraction", "Fraction of the run window the core was idle.")
	for _, r := range a.Reports(cores, end) {
		l := L("core", fmt.Sprint(r.Core))
		reg.Gauge("rtopex_core_busy_fraction", l).Set(r.Busy)
		reg.Gauge("rtopex_core_migration_fraction", l).Set(r.Migration)
		reg.Gauge("rtopex_core_idle_fraction", l).Set(r.Idle)
		reg.Gauge("rtopex_core_busy_us", l).Set(r.BusyUS)
	}
}

// AccountantFromLog replays a stored event log (time-sorted, stable) into a
// fresh accountant — the offline path cmd/rtoptrace uses on -in traces.
func AccountantFromLog(log *trace.EventLog) *CoreAccountant {
	evs := make([]trace.Event, len(log.Events))
	copy(evs, log.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	a := NewCoreAccountant()
	for _, e := range evs {
		a.Emit(e)
	}
	return a
}

var _ trace.Tracer = (*CoreAccountant)(nil)
